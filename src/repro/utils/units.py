"""Unit conversions between decibel-style and linear quantities.

The energy model of Section 2.3 of the paper quotes its constants in a
mixture of units: circuit powers in mW, the link margin ``M_l`` in dB, the
noise spectral densities ``sigma^2`` and ``N_0`` in dBm/Hz, the combined
antenna gain ``G_t G_r`` in dBi.  All internal computation in this library is
done in SI units (watts, joules, meters, hertz); these helpers are the only
place where dB-domain values are converted.

All functions accept scalars or NumPy arrays and broadcast element-wise.

Unit annotations
----------------
Alongside the converters this module declares the ``typing.Annotated``
unit vocabulary the RP3xx dimensional-analysis lint tier is seeded from
(see ``docs/static_analysis.md``).  Each physical unit has three aliases:

* a scalar form (``Watts`` — an annotated ``float``),
* a broadcasting form (``WattsLike`` — scalar or ``np.ndarray``),
* an array form (``WattsArray`` — ``np.ndarray`` only).

All three are transparent at runtime (``Annotated`` erases to the base
type; mypy and the interpreter see a plain ``float``/``ndarray``) but the
lint tier reads the :class:`UnitSpec` marker to type-check dimensions
across the call graph.  Annotate public numeric APIs with the most
specific alias that fits::

    def path_gain(distance_m: Meters, margin_db: DB) -> LinearRatio: ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

__all__ = [
    # converters
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "dbi_to_linear",
    "dbm_per_hz_to_watts_per_hz",
    "milliwatts_to_watts",
    "amplitude_ratio_to_db",
    "db_to_amplitude_ratio",
    # unit-annotation vocabulary
    "UnitSpec",
    "DB",
    "DBm",
    "DBi",
    "DBmPerHz",
    "LinearRatio",
    "Watts",
    "Milliwatts",
    "WattsPerHz",
    "Joules",
    "Seconds",
    "Meters",
    "Hertz",
    "Bits",
    "DBLike",
    "DBmLike",
    "DBiLike",
    "DBmPerHzLike",
    "LinearRatioLike",
    "WattsLike",
    "MilliwattsLike",
    "WattsPerHzLike",
    "JoulesLike",
    "SecondsLike",
    "MetersLike",
    "HertzLike",
    "BitsLike",
    "DBArray",
    "LinearRatioArray",
    "WattsArray",
    "JoulesArray",
    "MetersArray",
]


@dataclass(frozen=True)
class UnitSpec:
    """The ``Annotated`` metadata marker carrying a physical unit name.

    ``Annotated[float, UnitSpec("watts")]`` is a plain ``float`` to the
    type checker and the interpreter; the unit name is read only by the
    RP3xx lint tier (and by humans hovering the alias).
    """

    name: str


# Scalar aliases — one annotated ``float`` (``Bits`` is an ``int``) per unit.
DB = Annotated[float, UnitSpec("db")]
DBm = Annotated[float, UnitSpec("dbm")]
DBi = Annotated[float, UnitSpec("dbi")]
DBmPerHz = Annotated[float, UnitSpec("dbm_per_hz")]
LinearRatio = Annotated[float, UnitSpec("ratio")]
Watts = Annotated[float, UnitSpec("watts")]
Milliwatts = Annotated[float, UnitSpec("milliwatts")]
WattsPerHz = Annotated[float, UnitSpec("watts_per_hz")]
Joules = Annotated[float, UnitSpec("joules")]
Seconds = Annotated[float, UnitSpec("seconds")]
Meters = Annotated[float, UnitSpec("meters")]
Hertz = Annotated[float, UnitSpec("hertz")]
Bits = Annotated[int, UnitSpec("bits")]

# Broadcasting aliases — scalar or array, the converters' native shape.
DBLike = Annotated[ArrayLike, UnitSpec("db")]
DBmLike = Annotated[ArrayLike, UnitSpec("dbm")]
DBiLike = Annotated[ArrayLike, UnitSpec("dbi")]
DBmPerHzLike = Annotated[ArrayLike, UnitSpec("dbm_per_hz")]
LinearRatioLike = Annotated[ArrayLike, UnitSpec("ratio")]
WattsLike = Annotated[ArrayLike, UnitSpec("watts")]
MilliwattsLike = Annotated[ArrayLike, UnitSpec("milliwatts")]
WattsPerHzLike = Annotated[ArrayLike, UnitSpec("watts_per_hz")]
JoulesLike = Annotated[ArrayLike, UnitSpec("joules")]
SecondsLike = Annotated[ArrayLike, UnitSpec("seconds")]
MetersLike = Annotated[ArrayLike, UnitSpec("meters")]
HertzLike = Annotated[ArrayLike, UnitSpec("hertz")]
BitsLike = Annotated[ArrayLike, UnitSpec("bits")]

# Array-only aliases for APIs that return/consume vectors exclusively.
DBArray = Annotated[np.ndarray, UnitSpec("db")]
LinearRatioArray = Annotated[np.ndarray, UnitSpec("ratio")]
WattsArray = Annotated[np.ndarray, UnitSpec("watts")]
JoulesArray = Annotated[np.ndarray, UnitSpec("joules")]
MetersArray = Annotated[np.ndarray, UnitSpec("meters")]


def db_to_linear(value_db: DBLike) -> LinearRatioLike:
    """Convert a power ratio in dB to a linear ratio.

    ``x_lin = 10 ** (x_dB / 10)``.
    """
    return np.power(10.0, np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value: LinearRatioLike) -> DBLike:
    """Convert a linear power ratio to dB.

    Raises
    ------
    ValueError
        If any element is not strictly positive (log of a non-positive
        power ratio is undefined).
    """
    arr = np.asarray(value, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("linear_to_db requires strictly positive values")
    return 10.0 * np.log10(arr)


def dbm_to_watts(value_dbm: DBmLike) -> WattsLike:
    """Convert a power in dBm to watts: ``P_W = 10**(P_dBm/10) * 1e-3``."""
    return np.power(10.0, np.asarray(value_dbm, dtype=float) / 10.0) * 1e-3


def watts_to_dbm(value_w: WattsLike) -> DBmLike:
    """Convert a power in watts to dBm."""
    arr = np.asarray(value_w, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("watts_to_dbm requires strictly positive values")
    return 10.0 * np.log10(arr / 1e-3)


def dbi_to_linear(value_dbi: DBiLike) -> LinearRatioLike:
    """Convert an antenna gain in dBi to a linear gain.

    dBi is dB relative to an isotropic radiator, so numerically this is the
    same transform as :func:`db_to_linear`; a separate name keeps call sites
    self-documenting.
    """
    return db_to_linear(value_dbi)


def dbm_per_hz_to_watts_per_hz(value_dbm_hz: DBmPerHzLike) -> WattsPerHzLike:
    """Convert a power spectral density in dBm/Hz to W/Hz.

    Used for the thermal noise floor ``sigma^2 = -174 dBm/Hz`` and the
    receiver-referred density ``N_0 = -171 dBm/Hz`` of the paper.
    """
    return dbm_to_watts(value_dbm_hz)


def milliwatts_to_watts(value_mw: MilliwattsLike) -> WattsLike:
    """Convert mW to W (the circuit powers of Section 2.3 are quoted in mW)."""
    return np.asarray(value_mw, dtype=float) * 1e-3


def amplitude_ratio_to_db(ratio: LinearRatioLike) -> DBLike:
    """Convert an *amplitude* (voltage/DAC) ratio to dB: ``20 log10(r)``.

    Power goes with the square of amplitude, hence the factor 20 instead of
    10; used by the testbed radio model, where GNU Radio drives the USRP DAC
    with an integer amplitude.
    """
    arr = np.asarray(ratio, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("amplitude_ratio_to_db requires strictly positive ratios")
    return 20.0 * np.log10(arr)


def db_to_amplitude_ratio(value_db: DBLike) -> LinearRatioLike:
    """Convert dB to a linear *amplitude* ratio: ``10 ** (x_dB / 20)``."""
    return np.power(10.0, np.asarray(value_db, dtype=float) / 20.0)
