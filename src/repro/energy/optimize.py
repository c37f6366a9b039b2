"""Constellation-size optimization.

Every algorithm in the paper carries the step "SU nodes use the table of
``e_bar_b`` to determine constellation size ``b`` which minimizes"
the relevant energy.  These helpers perform that discrete optimization over
``b`` in 1..16 (the range swept in Section 6) for the three objectives used
by the experiments:

* minimize long-haul transmit energy at a fixed distance (underlay, and the
  direct-link budget of the overlay analysis);
* maximize link distance under an energy budget (overlay, Figure 6);
* minimize the peak PA energy (underlay noise-floor accounting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.energy.model import EnergyModel
from repro.utils.units import Hertz, Joules, Meters
from repro.utils.validation import check_finite, check_positive_int

__all__ = [
    "DEFAULT_B_RANGE",
    "OptimizationResult",
    "minimize_mimo_tx_energy",
    "maximize_mimo_distance",
    "minimize_over_b",
    "best_over_b",
]

#: The paper's constellation sweep: "constellation size b varies from 1 to 16".
DEFAULT_B_RANGE: Tuple[int, ...] = tuple(range(1, 17))


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a discrete search over constellation sizes."""

    b: int
    value: float

    def __post_init__(self) -> None:
        check_positive_int(self.b, "b")
        check_finite(self.value, "value")

    def __iter__(self) -> Iterator[float]:
        # allow  b, value = result  unpacking at call sites
        yield self.b
        yield self.value


def minimize_over_b(
    objective: Callable[[int], float],
    b_range: Iterable[int] = DEFAULT_B_RANGE,
    maximize: bool = False,
) -> OptimizationResult:
    """Evaluate ``objective(b)`` over ``b_range`` and return the best point.

    Candidate ``b`` values for which the objective raises ``ValueError`` are
    skipped (some (p, b) pairs are infeasible — e.g. a lax BER target makes
    the AWGN inversion of formula (1) non-positive for small b).
    """
    best: Optional[OptimizationResult] = None
    for b in b_range:
        try:
            value = float(objective(int(b)))
        except ValueError:
            continue
        if best is None or (value > best.value if maximize else value < best.value):
            best = OptimizationResult(b=int(b), value=value)
    if best is None:
        raise ValueError("no feasible constellation size in the given range")
    return best


def best_over_b(
    values: np.ndarray, maximize: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`minimize_over_b` over a ``(|b|, n)`` grid.

    Row ``k`` holds the objective of the ``k``-th candidate size at each of
    ``n`` points.  NaN marks a size the scalar search skips; when
    minimizing, so does an infinite objective (the scalar energy checks
    reject it).  Returns, per point, the winning row index and its value.
    The rules are the scalar search's: the first best row wins, a point
    with no feasible size raises the same ``ValueError``, and an infinite
    maximum raises the one :class:`OptimizationResult` would.
    """
    if maximize:
        skipped = -np.inf
        scored = np.where(np.isnan(values), skipped, values)
        rows, best = scored.argmax(axis=0), scored.max(axis=0)
    else:
        skipped = np.inf
        scored = np.where(np.isfinite(values), values, skipped)
        rows, best = scored.argmin(axis=0), scored.min(axis=0)
    if not np.isfinite(best).all():
        if (best == skipped).any():
            raise ValueError("no feasible constellation size in the given range")
        check_finite(float(best[~np.isfinite(best)][0]), "value")
    return rows, best


def minimize_mimo_tx_energy(
    model: EnergyModel,
    p: float,
    mt: int,
    mr: int,
    distance: Meters,
    bandwidth: Hertz,
    b_range: Iterable[int] = DEFAULT_B_RANGE,
) -> OptimizationResult:
    """``min_b e^{MIMOt}(mt, mr)`` at fixed distance; returns (b, energy [J/bit])."""
    return minimize_over_b(
        lambda b: model.mimo_tx(p, b, mt, mr, distance, bandwidth).total,
        b_range,
    )


def maximize_mimo_distance(
    model: EnergyModel,
    energy_budget: Joules,
    p: float,
    mt: int,
    mr: int,
    bandwidth: Hertz,
    b_range: Iterable[int] = DEFAULT_B_RANGE,
    extra_circuit: Union[float, Callable[[int], float]] = 0.0,
) -> OptimizationResult:
    """``max_b D(b)`` under an energy budget; returns (b, distance [m]).

    ``extra_circuit`` is additional per-bit energy the budget must also
    cover — the overlay analysis uses it for the relay's reception energy
    ``e^{MIMOr}`` in step 3 (``E_S = e^{MIMOt}(m,1) + e^{MIMOr}``).  It may
    be a float or a callable ``b -> float`` (``e^{MIMOr}`` itself depends on
    the constellation size through the circuit term).
    """
    extra = extra_circuit if callable(extra_circuit) else (lambda _b: extra_circuit)
    return minimize_over_b(
        lambda b: model.max_mimo_distance(
            energy_budget, p, b, mt, mr, bandwidth, extra_circuit=extra(b)
        ),
        b_range,
        maximize=True,
    )
