"""Flat Rayleigh (and Rician) block-fading MIMO channel draws.

The paper's MIMO links assume a flat Rayleigh fading channel whose
coefficient matrix ``H`` (shape ``mr x mt``) has i.i.d. circularly-symmetric
complex Gaussian entries of unit power: ``E[|h_ij|^2] = 1``.  The squared
Frobenius norm ``||H||_F^2`` — the quantity entering ``gamma_b`` in
formulas (5)/(6) — is then Gamma-distributed with shape ``mt*mr`` and unit
scale, which :mod:`repro.energy.ebar` exploits analytically; the explicit
draws here are used by the Monte-Carlo cross-checks and the link simulator.
"""

from __future__ import annotations

import numpy as np

from repro.channel.awgn import complex_gaussian
from repro.utils.rng import RngLike, as_rng

__all__ = ["rayleigh_mimo_channel", "rician_mimo_channel"]


def rayleigh_mimo_channel(
    mt: int,
    mr: int,
    n_blocks: int = 1,
    rng: RngLike = None,
) -> np.ndarray:
    """Draw ``n_blocks`` independent ``mr x mt`` Rayleigh channel matrices.

    Returns
    -------
    ndarray of shape ``(n_blocks, mr, mt)`` complex, unit average entry power.
    """
    if mt < 1 or mr < 1:
        raise ValueError("mt and mr must be >= 1")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    return complex_gaussian((n_blocks, mr, mt), variance=1.0, rng=rng)


def rician_mimo_channel(
    mt: int,
    mr: int,
    k_factor: float,
    n_blocks: int = 1,
    rng: RngLike = None,
) -> np.ndarray:
    """Rician fading with line-of-sight K-factor (linear, not dB).

    ``H = sqrt(K/(K+1)) * H_los + sqrt(1/(K+1)) * H_nlos`` with a fixed
    all-ones LOS component.  ``k_factor = 0`` degenerates to Rayleigh.  Used
    by the indoor testbed substitute, where short-range links with a direct
    path are better modeled as Rician.
    """
    if k_factor < 0.0:
        raise ValueError("k_factor must be non-negative")
    gen = as_rng(rng)
    nlos = rayleigh_mimo_channel(mt, mr, n_blocks, gen)
    los = np.ones((n_blocks, mr, mt), dtype=complex)
    return np.sqrt(k_factor / (k_factor + 1.0)) * los + np.sqrt(
        1.0 / (k_factor + 1.0)
    ) * nlos
