"""Additive white Gaussian noise.

Complex-baseband convention: a noise sample with variance ``N0`` per complex
dimension pair means real and imaginary parts are each ``N(0, N0/2)``, so
``E[|n|^2] = N0``.  All link-level simulators in :mod:`repro.phy` follow this
convention, with symbol energy normalized to ``E_s`` so that
``SNR = E_s / N0``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, as_rng

__all__ = ["awgn", "complex_gaussian"]


def complex_gaussian(shape, variance: float = 1.0, rng: RngLike = None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples with ``E[|x|^2] = variance``."""
    if variance < 0.0:
        raise ValueError("variance must be non-negative")
    gen = as_rng(rng)
    scale = np.sqrt(variance / 2.0)
    return scale * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


def awgn(signal: np.ndarray, noise_variance: float, rng: RngLike = None) -> np.ndarray:
    """Add complex AWGN of total variance ``noise_variance`` to ``signal``.

    Works for real signals too (noise is then real ``N(0, noise_variance)``),
    so the same helper serves both passband-abstracted and complex-baseband
    chains.
    """
    if noise_variance < 0.0:
        raise ValueError("noise_variance must be non-negative")
    sig = np.asarray(signal)
    gen = as_rng(rng)
    if np.iscomplexobj(sig):
        return sig + complex_gaussian(sig.shape, noise_variance, gen)
    return sig + np.sqrt(noise_variance) * gen.standard_normal(sig.shape)
