"""Percentiles that only speak when the sample supports them.

A tail percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it; below that, one outlier moves it and two runs of the
same commit disagree.  Medians are always reported, with their sample
count next to them in the run report.
"""

import math
from typing import Optional, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * weight


def median(values: Sequence[float]) -> float:
    """The 50th percentile; defined for any non-empty sample."""
    return percentile(values, 50.0)


def tail(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The ``q``-th percentile, or None when fewer than ``min_beyond``
    samples lie strictly beyond it."""
    if not values:
        return None
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= min_beyond else None


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for an empty sample (a count of nothing)."""
    return sum(values) / len(values) if values else 0.0
