"""Path-loss models.

Three models cover the paper's regimes:

* :class:`PowerLawPathLoss` — the local (intra-cluster) ``G_d = G1 d^kappa M_l``
  attenuation of formula (1) (kappa = 3.5);
* :class:`FreeSpacePathLoss` — the long-haul square-law
  ``(4 pi D)^2 / (G_t G_r lambda^2)`` factor of formula (3);
* :class:`LogDistancePathLoss` — the generic indoor model (reference loss at
  1 m plus ``10 n log10(d)``) used by the testbed substitute.

All models expose ``gain(distance)`` — the *loss* as a linear multiplicative
factor ``>= 1`` applied to required received energy to get transmit energy —
and ``attenuation_db(distance)`` for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.utils.units import (
    DB,
    DBLike,
    LinearRatio,
    LinearRatioLike,
    Meters,
    MetersArray,
    MetersLike,
    Watts,
    db_to_linear,
    linear_to_db,
)
from repro.utils.validation import check_finite

__all__ = ["PowerLawPathLoss", "FreeSpacePathLoss", "LogDistancePathLoss"]

ArrayLike = Union[float, np.ndarray]


def _check_distances(distance_m: MetersLike) -> MetersArray:
    arr = np.asarray(distance_m, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("distances must be strictly positive")
    return arr


@dataclass(frozen=True)
class PowerLawPathLoss:
    """``gain(d) = g1 * d^kappa * margin`` — the paper's local model.

    Parameters mirror the constants of Section 2.3: ``g1`` is the 1-meter
    gain factor in watts, ``kappa`` the path-loss exponent, ``margin`` the
    linear link margin ``M_l``.
    """

    g1: Watts = 10e-3
    kappa: float = 3.5
    margin: LinearRatio = 1e4  # 40 dB

    def __post_init__(self) -> None:
        if self.g1 <= 0 or self.kappa <= 0 or self.margin <= 0:
            raise ValueError("g1, kappa and margin must all be positive")

    def gain(self, distance_m: MetersLike) -> LinearRatioLike:
        """Linear loss factor at the given distance(s)."""
        d = _check_distances(distance_m)
        return self.g1 * d**self.kappa * self.margin

    def attenuation_db(self, distance_m: MetersLike) -> DBLike:
        """Loss in dB at the given distance(s)."""
        return linear_to_db(self.gain(distance_m))


@dataclass(frozen=True)
class FreeSpacePathLoss:
    """``gain(D) = (4 pi D)^2 / (Gt Gr lambda^2) * margin * noise_figure``.

    The long-haul factor of formula (3).  ``antenna_gain`` is the linear
    ``G_t G_r`` product; ``margin`` and ``noise_figure`` are linear ratios.
    """

    wavelength_m: Meters = 0.1199
    antenna_gain: LinearRatio = 10 ** 0.5  # 5 dBi
    margin: LinearRatio = 1e4  # 40 dB
    noise_figure: LinearRatio = 10.0  # 10 dB

    def __post_init__(self) -> None:
        if min(self.wavelength_m, self.antenna_gain, self.margin, self.noise_figure) <= 0:
            raise ValueError("all FreeSpacePathLoss parameters must be positive")

    def gain(self, distance_m: MetersLike) -> LinearRatioLike:
        """Linear loss factor (formula (3)'s long-haul multiplier)."""
        d = _check_distances(distance_m)
        return (
            (4.0 * np.pi * d) ** 2
            / (self.antenna_gain * self.wavelength_m**2)
            * self.margin
            * self.noise_figure
        )

    def attenuation_db(self, distance_m: MetersLike) -> DBLike:
        """Loss in dB at the given distance(s)."""
        return linear_to_db(self.gain(distance_m))


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Indoor log-distance model: ``L_dB(d) = L0 + 10 n log10(d / d0)``.

    ``gain`` returns the linear loss factor.  Default exponent 3.0 and 40 dB
    reference loss at 1 m are typical for 2.4 GHz indoor NLOS conditions,
    matching the testbed's office/lab environment.
    """

    reference_loss_db: DB = 40.0
    exponent: float = 3.0
    reference_distance_m: Meters = 1.0

    def __post_init__(self) -> None:
        check_finite(self.reference_loss_db, "reference_loss_db")
        if self.reference_distance_m <= 0:
            raise ValueError("reference_distance_m must be positive")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")

    def attenuation_db(self, distance_m: MetersLike) -> DBLike:
        """Loss in dB: ``L0 + 10 n log10(d / d0)``."""
        d = _check_distances(distance_m)
        # NOTE: keep the 10*n grouping — n * linear_to_db(d/d0) changes the
        # float association and breaks bit-identity with the golden tables.
        return self.reference_loss_db + 10.0 * self.exponent * np.log10(  # lint: ignore[RP101]
            d / self.reference_distance_m
        )

    def gain(self, distance_m: MetersLike) -> LinearRatioLike:
        """Linear loss factor at the given distance(s)."""
        return np.asarray(db_to_linear(self.attenuation_db(distance_m)))
