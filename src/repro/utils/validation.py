"""Argument-validation helpers shared across the library.

Kept deliberately small: each helper raises ``ValueError`` (or ``TypeError``
for wrong types) with a message naming the offending parameter, so that a
mis-configured experiment fails at the API boundary rather than deep inside
a vectorized kernel with an inscrutable NumPy error.
"""

from __future__ import annotations

import numbers
from typing import Optional

import numpy as np

__all__ = [
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_in_range",
    "check_finite",
    "check_non_negative",
    "check_non_negative_int",
    "check_non_negative_arrays",
]


def _require_real(value: float, name: str) -> float:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value)!r}")
    return float(value)


def check_finite(value: float, name: str) -> float:
    """Require a real, finite scalar (any sign); return it as float.

    The weakest boundary check: rejects NaN, ±inf, bools and non-numeric
    types.  Used for quantities that are legitimately signed, such as powers
    or SNRs quoted in dB.
    """
    value = _require_real(value, name)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Require a real, finite scalar ``>= 0``; return it as float."""
    value = check_finite(value, name)
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_non_negative_arrays(**arrays: np.ndarray) -> None:
    """:func:`check_non_negative` on every element of equal-length arrays.

    One vectorized test over all of them; the first offending element
    raises the scalar check's ``ValueError``, named after its array.
    """
    names = list(arrays)
    grid = np.stack(list(arrays.values()))
    bad = ~((grid >= 0.0) & (grid < np.inf))
    if bad.any():
        row, column = np.argwhere(bad)[0]
        check_non_negative(float(grid[row, column]), names[row])


def check_non_negative_int(value: int, name: str) -> int:
    """Require an integer ``>= 0`` (bool rejected); return it as int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value)!r}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Require a real, strictly positive, finite scalar; return it as float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value)!r}")
    value = float(value)
    if not value > 0.0 or value != value or value == float("inf"):
        raise ValueError(f"{name} must be strictly positive and finite, got {value}")
    return value


def check_positive_int(value: int, name: str, maximum: Optional[int] = None) -> int:
    """Require a strictly positive integer, optionally bounded above."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value)!r}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Require a probability in the open interval (0, 1)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value)!r}")
    value = float(value)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1), got {value}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    inclusive: bool = True,
) -> float:
    """Require ``low <= value <= high`` (or strict, if ``inclusive=False``)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value)!r}")
    value = float(value)
    ok = (low <= value <= high) if inclusive else (low < value < high)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must lie in {bracket[0]}{low}, {high}{bracket[1]}, got {value}"
        )
    return value
