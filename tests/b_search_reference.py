"""The size-by-size constellation search: the reference for the array pass.

The library picks ``b`` in one ``(|b|, n)`` array pass
(:func:`repro.energy.optimize.best_over_b`).  This module keeps the search
that pass replaced: a Python loop over the sizes that evaluates the scalar
energy formulas (:meth:`EnergyModel.mimo_tx`,
:meth:`EnergyModel.max_mimo_distance`, :func:`hop_energy`) one size at a
time and skips each size whose formula raises ``ValueError``.  The
property tests hold the array pass equal to it, bit for bit and error for
error.  Pytest does not collect this module; the tests import it.
"""

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple

from repro.core.overlay import OverlayDistanceResult, OverlaySystem, RelayEnergy
from repro.core.schemes import HopEnergy, hop_energy
from repro.core.underlay import UnderlayEnergyResult, UnderlaySystem
from repro.utils.validation import (
    check_finite,
    check_positive,
    check_positive_int,
    check_probability,
)


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
    b_range: Iterable[int],
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


def relay_energy(
    system: OverlaySystem, p: float, m: int, d_pt_su: float, d_su_pr: float, bandwidth: float
) -> RelayEnergy:
    """:meth:`OverlaySystem.relay_energy`, one size at a time."""
    model = system.model
    p = check_probability(p, "p")
    m = check_positive_int(m, "m")
    check_positive(d_pt_su, "d_pt_su")
    check_positive(d_su_pr, "d_su_pr")
    check_positive(bandwidth, "bandwidth")
    simo = minimize_over_b(
        lambda b: model.mimo_tx(p, b, 1, m, d_pt_su, bandwidth).total, system.b_range
    )
    miso = minimize_over_b(
        lambda b: model.mimo_tx(p, b, m, 1, d_su_pr, bandwidth).total, system.b_range
    )
    return RelayEnergy(
        m=m,
        b_simo=simo.b,
        b_miso=miso.b,
        primary_tx=simo.value,
        primary_rx=model.mimo_rx(miso.b, bandwidth).total,
        su_rx=model.mimo_rx(simo.b, bandwidth).total,
        su_tx=miso.value,
    )


def direct_link_energy(
    system: OverlaySystem, d1: float, p_direct: float, bandwidth: float
) -> Tuple[int, float]:
    """:meth:`OverlaySystem.direct_link_energy`, one size at a time."""
    check_positive(d1, "d1")
    best = minimize_over_b(
        lambda b: system.model.mimo_tx(p_direct, b, 1, 1, d1, bandwidth).total,
        system.b_range,
    )
    return best.b, best.value


def distance_analysis(
    system: OverlaySystem,
    d1: float,
    m: int,
    bandwidth: float,
    p_direct: float = 0.005,
    p_relay: float = 0.0005,
) -> OverlayDistanceResult:
    """:meth:`OverlaySystem.distance_analysis`, one size at a time."""
    model = system.model
    m = check_positive_int(m, "m")
    b_direct, e1 = direct_link_energy(system, d1, p_direct, bandwidth)
    simo = minimize_over_b(
        lambda b: model.max_mimo_distance(e1, p_relay, b, 1, m, bandwidth),
        system.b_range,
        maximize=True,
    )
    miso = minimize_over_b(
        lambda b: model.max_mimo_distance(
            e1, p_relay, b, m, 1, bandwidth,
            extra_circuit=model.mimo_rx(b, bandwidth).total,
        ),
        system.b_range,
        maximize=True,
    )
    return OverlayDistanceResult(
        d1=float(d1),
        m=m,
        bandwidth=float(bandwidth),
        p_direct=p_direct,
        p_relay=p_relay,
        e1=e1,
        b_direct=b_direct,
        d2=simo.value,
        b_simo=simo.b,
        d3=miso.value,
        b_miso=miso.b,
    )


def pa_energy(
    system: UnderlaySystem,
    p: float,
    mt: int,
    mr: int,
    d: float,
    distance: float,
    bandwidth: float,
) -> UnderlayEnergyResult:
    """:meth:`UnderlaySystem.pa_energy`, one size at a time."""
    p = check_probability(p, "p")
    mt = check_positive_int(mt, "mt")
    mr = check_positive_int(mr, "mr")
    check_positive(d, "d")
    check_positive(distance, "distance")
    check_positive(bandwidth, "bandwidth")

    def hop(b: int) -> HopEnergy:
        return hop_energy(system.model, p, b, mt, mr, d, distance, bandwidth)

    best = minimize_over_b(lambda b: hop(b).pa_total, system.b_range)
    chosen = hop(best.b)
    return UnderlayEnergyResult(
        mt=mt,
        mr=mr,
        b=best.b,
        d=float(d),
        distance=float(distance),
        total_pa=chosen.pa_total,
        peak_pa=chosen.pa_peak,
        hop=chosen,
    )
