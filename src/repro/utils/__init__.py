"""Shared low-level utilities: unit conversions, the Gaussian Q-function,
random-number-generator plumbing and argument validation.

Every formula in the paper mixes dB, dBm, dBi and linear quantities; the
:mod:`repro.utils.units` helpers keep those conversions in one audited place
— and :mod:`repro.lintkit` rule RP101 enforces that no other module converts
inline.
"""

from repro.utils.fsio import atomic_write_bytes
from repro.utils.qfunc import inv_qfunc, qfunc
from repro.utils.rng import as_rng, spawn_rngs, spawn_seed_sequences
from repro.utils.sysinfo import (
    available_cpu_count,
    default_shard_count,
    default_worker_count,
)
from repro.utils.units import (
    UnitSpec,
    amplitude_ratio_to_db,
    db_to_amplitude_ratio,
    db_to_linear,
    dbi_to_linear,
    dbm_per_hz_to_watts_per_hz,
    dbm_to_watts,
    linear_to_db,
    milliwatts_to_watts,
    watts_to_dbm,
)
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "qfunc",
    "inv_qfunc",
    "atomic_write_bytes",
    "available_cpu_count",
    "default_shard_count",
    "default_worker_count",
    "as_rng",
    "spawn_rngs",
    "spawn_seed_sequences",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "dbi_to_linear",
    "dbm_per_hz_to_watts_per_hz",
    "milliwatts_to_watts",
    "amplitude_ratio_to_db",
    "db_to_amplitude_ratio",
    "UnitSpec",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_in_range",
    "check_finite",
    "check_non_negative",
    "check_non_negative_int",
]
