"""Cooperative MIMO paradigm for overlay systems (Section 3, Algorithm 1).

``m`` secondary users relay the primary transmission:

* **Step 1** — the primary transmitter Pt sends; the ``m`` SUs receive over
  a ``1 x m`` SIMO link (per-SU cost ``e^{MIMOr}``, Pt cost
  ``e^{MIMOt}(1, m)``);
* **Step 2** — the ``m`` SUs forward to the primary receiver Pr over an
  ``m x 1`` MISO link (per-SU cost ``e^{MIMOt}(m, 1)``, Pr cost
  ``e^{MIMOr}``).

The per-SU relaying energy is ``E_S = e^{MIMOt}(m, 1) + e^{MIMOr}``.

The Figure 6 distance analysis then asks: assuming PUs and SUs spend the
*same* per-bit energy, and the relayed path must hit a 10x better BER than
the direct path, how far can the relay cluster sit from Pt (D2) and from Pr
(D3)?

1. ``E_1 = min_b e^{MIMOt}(1, 1)`` at the direct distance ``D_1`` and
   direct BER target;
2. ``D_2`` from ``E_1 = e^{MIMOt}(1, m)`` at the relayed BER target
   (maximized over ``b``);
3. ``D_3`` from ``E_1 = e^{MIMOt}(m, 1) + e^{MIMOr}`` (maximized over
   ``b``).

Every step prices all constellation sizes at every point in one ``(|b|,
n)`` array pass and picks ``b`` with
:func:`repro.energy.optimize.best_over_b`; the one-point methods
(:meth:`OverlaySystem.relay_energy`, :meth:`~OverlaySystem.direct_link_energy`,
:meth:`~OverlaySystem.distance_analysis`) are that pass at ``n = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.energy.model import EnergyModel
from repro.energy.optimize import DEFAULT_B_RANGE, best_over_b
from repro.utils.units import JoulesArray, MetersArray
from repro.utils.validation import (
    check_finite,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = ["OverlaySystem", "OverlayDistanceResult", "OverlayArrays", "RelayEnergy"]


@dataclass(frozen=True)
class RelayEnergy:
    """Per-bit energy of every party in one relayed primary transmission."""

    m: int
    b_simo: int
    b_miso: int
    primary_tx: float  # E_Pt = e^MIMOt(1, m)
    primary_rx: float  # E_Pr = e^MIMOr
    su_rx: float  # E_Sr = e^MIMOr
    su_tx: float  # E_St = e^MIMOt(m, 1)

    def __post_init__(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.b_simo, "b_simo")
        check_positive_int(self.b_miso, "b_miso")
        check_finite(self.primary_tx, "primary_tx")
        check_finite(self.primary_rx, "primary_rx")
        check_finite(self.su_rx, "su_rx")
        check_finite(self.su_tx, "su_tx")

    @property
    def su_total(self) -> float:
        """``E_S = E_St + E_Sr`` — what each relay SU spends per bit."""
        return self.su_tx + self.su_rx


@dataclass(frozen=True)
class OverlayDistanceResult:
    """Outcome of the Figure 6 analysis for one (D1, m, B) point."""

    d1: float
    m: int
    bandwidth: float
    p_direct: float
    p_relay: float
    e1: float  # direct-link energy budget [J/bit]
    b_direct: int
    d2: float  # largest SU distance from Pt [m]
    b_simo: int
    d3: float  # largest SU distance from Pr [m]
    b_miso: int

    def __post_init__(self) -> None:
        check_finite(self.d1, "d1")
        check_positive_int(self.m, "m")
        check_positive(self.bandwidth, "bandwidth")
        check_finite(self.p_direct, "p_direct")
        check_finite(self.p_relay, "p_relay")
        check_finite(self.e1, "e1")
        check_positive_int(self.b_direct, "b_direct")
        check_finite(self.d2, "d2")
        check_positive_int(self.b_simo, "b_simo")
        check_finite(self.d3, "d3")
        check_positive_int(self.b_miso, "b_miso")


class OverlayArrays(NamedTuple):
    """:class:`OverlayDistanceResult` fields over a D1 axis, one entry per
    point (the scalar fields are shared by every point)."""

    m: int
    bandwidth: float
    p_direct: float
    p_relay: float
    d1: MetersArray
    e1: JoulesArray
    b_direct: np.ndarray
    d2: MetersArray
    b_simo: np.ndarray
    d3: MetersArray
    b_miso: np.ndarray


class OverlaySystem:
    """Algorithm 1 with its energy and distance analyses.

    Parameters
    ----------
    model:
        Energy model; for Figure 6 fidelity build it with
        ``ebar_convention="diversity_only"`` (see EXPERIMENTS.md — the
        paper's own Figure 6 numbers imply the (mt, mr)-symmetric table).
    b_range:
        Constellation sizes searched by every optimization step.
    """

    def __init__(
        self,
        model: EnergyModel,
        b_range: Sequence[int] = DEFAULT_B_RANGE,
    ):
        self.model = model
        self.b_range = tuple(check_positive_int(b, "b") for b in b_range)
        if not self.b_range:
            raise ValueError("b_range must be non-empty")
        self._b_values = np.array(self.b_range)

    # ------------------------------------------------------------------ #
    # Algorithm 1 energy accounting                                      #
    # ------------------------------------------------------------------ #

    def relay_energy(
        self,
        p: float,
        m: int,
        d_pt_su: float,
        d_su_pr: float,
        bandwidth: float,
    ) -> RelayEnergy:
        """Per-bit energies of one relayed transmission (Steps 1 and 2).

        Constellation sizes are chosen per-link to minimize the respective
        transmit energies (the algorithm's table-lookup rule).
        """
        p = check_probability(p, "p")
        m = check_positive_int(m, "m")
        d_pt_su = check_positive(d_pt_su, "d_pt_su")
        d_su_pr = check_positive(d_su_pr, "d_su_pr")
        bandwidth = check_positive(bandwidth, "bandwidth")
        b_simo, primary_tx = self._min_tx_energy(p, 1, m, np.array([d_pt_su]), bandwidth)
        b_miso, su_tx = self._min_tx_energy(p, m, 1, np.array([d_su_pr]), bandwidth)
        b_simo, b_miso = int(b_simo[0]), int(b_miso[0])
        return RelayEnergy(
            m=m,
            b_simo=b_simo,
            b_miso=b_miso,
            primary_tx=float(primary_tx[0]),
            primary_rx=self.model.mimo_rx(b_miso, bandwidth).total,
            su_rx=self.model.mimo_rx(b_simo, bandwidth).total,
            su_tx=float(su_tx[0]),
        )

    # ------------------------------------------------------------------ #
    # Figure 6 distance analysis                                         #
    # ------------------------------------------------------------------ #

    def direct_link_energy(
        self, d1: float, p_direct: float, bandwidth: float
    ) -> Tuple[int, float]:
        """Step 1: ``E_1 = min_b e^{MIMOt}(1, 1)`` at distance ``D_1``."""
        d1 = check_positive(d1, "d1")
        p_direct = check_probability(p_direct, "p_direct")
        bandwidth = check_positive(bandwidth, "bandwidth")
        b, e1 = self._min_tx_energy(p_direct, 1, 1, np.array([d1]), bandwidth)
        return int(b[0]), float(e1[0])

    def distance_analysis(
        self,
        d1: float,
        m: int,
        bandwidth: float,
        p_direct: float = 0.005,
        p_relay: float = 0.0005,
    ) -> OverlayDistanceResult:
        """Steps 1-3 of the Section 3 analysis for one parameter point.

        Defaults match Figure 6: direct BER 0.005, relayed BER 0.0005
        ("10 times improved").  The one-point view of
        :meth:`distance_analyses`.
        """
        return self.distance_analyses([d1], m, bandwidth, p_direct, p_relay)[0]

    # ------------------------------------------------------------------ #
    # The D1 axis in one array pass                                      #
    # ------------------------------------------------------------------ #

    def _min_tx_energy(
        self, p: float, mt: int, mr: int, distances: MetersArray, bandwidth: float
    ) -> Tuple[np.ndarray, JoulesArray]:
        """``min_b e^{MIMOt}(mt, mr)`` over a distance vector: per-point
        ``(b, energy)`` arrays.

        ``e^{MIMOt}(mt, mr)`` of every size at every point is one
        ``(|b|, n)`` grid; an infeasible size is NaN (refused ``e_bar_b``)
        or infinite (overflowing PA).  The distances must already be
        validated as positive and finite.
        """
        model = self.model
        pa = model.mimo_tx_pa_grid(p, mt, mr, distances, bandwidth, self.b_range)
        v = model.mimo_vectors(p, mt, mr, bandwidth, self.b_range)
        rows, energy = best_over_b(pa + v.tx_circuit[:, None])
        return self._b_values[rows], energy

    def _max_distance(
        self,
        budgets: JoulesArray,
        p_relay: float,
        mt: int,
        mr: int,
        bandwidth: float,
        with_rx_circuit: bool,
    ) -> Tuple[np.ndarray, MetersArray]:
        """Steps 2/3 over a budget vector: ``(b, D)`` maximizing the reach.

        :meth:`EnergyModel.max_mimo_distance`'s closed-form inversion for
        every size at every budget: 0.0 where the budget does not cover the
        circuit terms (decided before ``e_bar_b`` is needed, so even a size
        the solver refuses reads 0.0 there), NaN (skipped) where it does but
        ``e_bar_b`` is refused.
        """
        v = self.model.mimo_vectors(p_relay, mt, mr, bandwidth, self.b_range)
        headroom = budgets - v.tx_circuit[:, None]
        if with_rx_circuit:
            headroom = headroom - v.rx_circuit[:, None]
        d_squared = headroom * mt / v.reach_denominator[:, None]
        reach = np.where(headroom <= 0.0, 0.0, np.sqrt(np.maximum(d_squared, 0.0)))
        rows, distance = best_over_b(reach, maximize=True)
        return self._b_values[rows], distance

    def distance_arrays(
        self,
        d1_values: Sequence[float],
        m: int,
        bandwidth: float,
        p_direct: float = 0.005,
        p_relay: float = 0.0005,
    ) -> OverlayArrays:
        """Steps 1-3 over the whole D1 axis, one array pass per step.

        Every constellation size is priced at every point in one
        ``(|b|, n)`` pass of ``+ - * / sqrt`` on the memoized per-b vectors
        (:meth:`EnergyModel.mimo_vectors`), then reduced by
        :func:`best_over_b`.  Each entry equals a size-by-size search of
        :meth:`EnergyModel.mimo_tx` and :meth:`EnergyModel.max_mimo_distance`
        at that point, bit for bit.
        """
        m = check_positive_int(m, "m")
        p_direct = check_probability(p_direct, "p_direct")
        p_relay = check_probability(p_relay, "p_relay")
        bandwidth = check_positive(bandwidth, "bandwidth")
        d1 = np.asarray([check_positive(v, "d1") for v in d1_values], dtype=float)
        b_direct, e1 = self._min_tx_energy(p_direct, 1, 1, d1, bandwidth)
        b_simo, d2 = self._max_distance(e1, p_relay, 1, m, bandwidth, False)
        b_miso, d3 = self._max_distance(e1, p_relay, m, 1, bandwidth, True)
        return OverlayArrays(
            m=m,
            bandwidth=bandwidth,
            p_direct=p_direct,
            p_relay=p_relay,
            d1=d1,
            e1=e1,
            b_direct=b_direct,
            d2=d2,
            b_simo=b_simo,
            d3=d3,
            b_miso=b_miso,
        )

    def distance_analyses(
        self,
        d1_values: Sequence[float],
        m: int,
        bandwidth: float,
        p_direct: float = 0.005,
        p_relay: float = 0.0005,
    ) -> List[OverlayDistanceResult]:
        """:meth:`distance_arrays` as one :class:`OverlayDistanceResult` per
        point; :meth:`distance_analysis` is its one-point view."""
        a = self.distance_arrays(d1_values, m, bandwidth, p_direct, p_relay)
        return [
            OverlayDistanceResult(
                d1=d1,
                m=a.m,
                bandwidth=a.bandwidth,
                p_direct=a.p_direct,
                p_relay=a.p_relay,
                e1=e1,
                b_direct=b_direct,
                d2=d2,
                b_simo=b_simo,
                d3=d3,
                b_miso=b_miso,
            )
            for d1, e1, b_direct, d2, b_simo, d3, b_miso in zip(
                a.d1.tolist(),
                a.e1.tolist(),
                a.b_direct.tolist(),
                a.d2.tolist(),
                a.b_simo.tolist(),
                a.d3.tolist(),
                a.b_miso.tolist(),
            )
        ]
