"""The Gaussian Q-function and its inverse.

``Q(x)`` is the tail probability of the standard normal distribution.  It
appears in every BER expression of the paper (formulas (5) and (6)) and in
the closed-form Rayleigh-diversity averages used by :mod:`repro.energy.ebar`.

Implemented via ``scipy.special.erfc`` for numerical stability deep into the
tail (``Q(40)`` is representable, whereas ``1 - Phi(x)`` underflows long
before that).  ``scipy.special`` is imported inside each call, not with
this module: the planning service and the simulator never call either
function, and importing it costs every one of their processes ~150 ms
and ~25 MiB (``docs/performance.md`` section 6).
"""

from __future__ import annotations

from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

__all__ = ["qfunc", "inv_qfunc", "qfunc_chernoff_bound"]

_SQRT2 = np.sqrt(2.0)


def qfunc(x: ArrayLike) -> ArrayLike:
    """Gaussian tail probability ``Q(x) = P(N(0,1) > x)``.

    Accepts any real argument (``Q(-x) = 1 - Q(x)``) and broadcasts over
    arrays.
    """
    from scipy import special

    return 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)


def inv_qfunc(p: ArrayLike) -> ArrayLike:
    """Inverse of :func:`qfunc` on ``(0, 1)``.

    Raises
    ------
    ValueError
        If any element of ``p`` lies outside the open interval (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ValueError("inv_qfunc requires probabilities strictly in (0, 1)")
    from scipy import special

    return _SQRT2 * special.erfcinv(2.0 * arr)


def qfunc_chernoff_bound(x: ArrayLike) -> ArrayLike:
    """Chernoff upper bound ``Q(x) <= exp(-x^2 / 2)`` for ``x >= 0``.

    Useful in tests as a cheap sanity envelope for the exact function.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("the Chernoff bound is stated for x >= 0")
    return np.exp(-(arr**2) / 2.0)
