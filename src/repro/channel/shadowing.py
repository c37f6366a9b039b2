"""Log-normal shadowing.

Large-scale fading caused by obstructions; modeled as a zero-mean Gaussian
random variable in the dB domain with standard deviation ``sigma_db``.
Used by the indoor testbed substitute (real indoor links at 2.45 GHz show
4–8 dB shadowing spread) on top of the deterministic log-distance loss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import RngLike, as_rng
from repro.utils.units import DB, DBArray

__all__ = ["LogNormalShadowing"]


@dataclass(frozen=True)
class LogNormalShadowing:
    """Zero-mean log-normal shadowing with ``sigma_db`` dB spread."""

    sigma_db: DB = 6.0

    def __post_init__(self) -> None:
        if self.sigma_db < 0.0:
            raise ValueError("sigma_db must be non-negative")

    def sample_db(self, shape=(), rng: RngLike = None) -> DBArray:
        """Shadowing realizations in dB (may be negative: constructive)."""
        gen = as_rng(rng)
        return self.sigma_db * gen.standard_normal(shape)
