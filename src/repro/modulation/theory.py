"""Theoretical bit-error-rate expressions.

This module collects the analytic BER formulas that anchor the whole
reproduction:

* :func:`instantaneous_ber` — the paper's formulas (5)/(6) kernels: BER of
  Gray M-QAM (or BPSK for b=1) at a given instantaneous ``gamma_b``;
* :func:`rayleigh_diversity_avg_qfunc` — the exact closed form for
  ``E[Q(sqrt(2 c G))]`` with ``G ~ Gamma(k, 1)``, which is the average over
  the Rayleigh MIMO channel ``H`` in formulas (5)/(6) (``||H||_F^2`` of an
  i.i.d. unit-power complex Gaussian ``mt x mr`` matrix is Gamma(mt*mr, 1));
* AWGN and flat-Rayleigh reference curves used to validate the Monte-Carlo
  link simulator.

The closed form (e.g. Proakis, *Digital Communications*, eq. 14.4-15) is::

    E[Q(sqrt(2 c G))] = [ (1-mu)/2 ]^k  *  sum_{i=0}^{k-1} C(k-1+i, i) [ (1+mu)/2 ]^i
    mu = sqrt( c / (1 + c) )

It is exact for integer diversity order ``k`` and numerically robust for the
small target BERs the paper sweeps (1e-1 .. 5e-4).  Its coefficients
C(k-1+i, i) come from :func:`binomial_row`, one memoized row per ``k``.
"""

from __future__ import annotations

import functools
from typing import Union

import numpy as np

from repro.utils.qfunc import qfunc
from repro.utils.units import db_to_linear

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "ber_bpsk_awgn",
    "ber_mqam_awgn",
    "ber_bpsk_rayleigh",
    "binomial_row",
    "instantaneous_ber",
    "mqam_ber_coefficients",
    "rayleigh_diversity_avg_qfunc",
]


def mqam_ber_coefficients(b: int) -> tuple:
    """Coefficients ``(a, g)`` such that ``BER ≈ a * Q(sqrt(g * gamma_b))``.

    For b = 1 (BPSK): ``a = 1, g = 2`` (formula (6)).
    For b >= 2 (Gray M-QAM): ``a = (4/b)(1 - 2^{-b/2})``, ``g = 3b/(M-1)``
    (formula (5)); ``gamma_b`` is SNR per *bit*.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if b == 1:
        return 1.0, 2.0
    m = 2.0**b
    a = 4.0 / b * (1.0 - 2.0 ** (-b / 2.0))
    g = 3.0 * b / (m - 1.0)
    return a, g


def instantaneous_ber(gamma_b: ArrayLike, b: int) -> ArrayLike:
    """BER at instantaneous per-bit SNR ``gamma_b`` — formulas (5)/(6) kernels."""
    a, g = mqam_ber_coefficients(b)
    gb = np.asarray(gamma_b, dtype=float)
    if np.any(gb < 0.0):
        raise ValueError("gamma_b must be non-negative")
    return a * qfunc(np.sqrt(g * gb))


def ber_bpsk_awgn(ebn0_db: ArrayLike) -> ArrayLike:
    """Exact BPSK-over-AWGN BER: ``Q(sqrt(2 Eb/N0))``."""
    gamma = np.asarray(db_to_linear(ebn0_db))
    return qfunc(np.sqrt(2.0 * gamma))


def ber_mqam_awgn(ebn0_db: ArrayLike, b: int) -> ArrayLike:
    """Gray M-QAM over AWGN (nearest-neighbour approximation, formula (5))."""
    gamma = np.asarray(db_to_linear(ebn0_db))
    return instantaneous_ber(gamma, b)


def ber_bpsk_rayleigh(ebn0_db: ArrayLike) -> ArrayLike:
    """Exact BPSK over flat Rayleigh fading: ``(1 - sqrt(g/(1+g)))/2``."""
    gamma = np.asarray(db_to_linear(ebn0_db))
    return 0.5 * (1.0 - np.sqrt(gamma / (1.0 + gamma)))


#: ``scipy.special.binom`` computes C(n, i) by an integer product for
#: ``i`` below this and by a beta-function formula from it on.
_PRODUCT_TERMS = 20


# 256 rows cover every k = mt * mr the service admits (mt, mr <= 16).
@functools.lru_cache(maxsize=256)
def binomial_row(k: int) -> np.ndarray:
    """``C(k-1+i, i)`` for ``i = 0 .. k-1``: the closed form's coefficients.

    Memoized per diversity order ``k`` and read-only.  Bit for bit what
    ``scipy.special.comb(k-1+i, i)`` returns: entries with ``i < 20`` copy
    scipy's integer product step for step, and only the entries with
    ``i >= 20`` (which exist for ``k >= 21`` only) call scipy, whose
    beta-function branch has no exact in-tree formula.  That call
    imports ``scipy.special`` on first use.
    """
    row = np.empty(k)
    for i in range(min(k, _PRODUCT_TERMS)):
        n = float(k - 1 + i)
        num = den = 1.0
        for j in range(1, i + 1):
            num *= (j + n) - i
            den *= j
            if abs(num) > 1e50:
                num /= den
                den = 1.0
        row[i] = num / den
    if k > _PRODUCT_TERMS:
        from scipy import special

        i = np.arange(_PRODUCT_TERMS, k)
        row[_PRODUCT_TERMS:] = special.comb(k - 1 + i, i)
    row.flags.writeable = False
    return row


def rayleigh_diversity_avg_qfunc(c: ArrayLike, k: int) -> ArrayLike:
    """Exact ``E[Q(sqrt(2 c G))]`` for ``G ~ Gamma(k, 1)`` (see module docs).

    Parameters
    ----------
    c:
        Per-unit-``G`` SNR scale (``>= 0``); broadcasts over arrays.
    k:
        Integer diversity order ``mt * mr`` (``>= 1``).

    Notes
    -----
    ``G = ||H||_F^2`` sums ``k`` unit-mean exponential branch powers, so this
    is exactly the classical k-branch MRC average over i.i.d. Rayleigh fading.
    Monotone decreasing in ``c`` for fixed ``k`` — a property the ē_b root
    finder relies on and the test suite asserts.
    """
    if k < 1:
        raise ValueError(f"diversity order k must be >= 1, got {k}")
    carr = np.asarray(c, dtype=float)
    if np.any(carr < 0.0):
        raise ValueError("c must be non-negative")
    mu = np.sqrt(carr / (1.0 + carr))
    half_minus = (1.0 - mu) / 2.0
    half_plus = (1.0 + mu) / 2.0
    # sum_i C(k-1+i, i) ((1+mu)/2)^i, broadcast on the last axis.
    powers = half_plus[..., None] ** np.arange(k)
    series = np.sum(binomial_row(k) * powers, axis=-1)
    return half_minus**k * series
