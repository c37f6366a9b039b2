"""Cooperative MIMO paradigm for underlay systems (Section 4, Algorithm 2).

SUs share the primary band with no knowledge of the primary signals, under
the constraint that their radiated spectral density stays below the noise
floor at the primary receiver.  The paper therefore accounts *only* the
power-amplifier energy of the transmission process (circuit energy is not
radiated) and tracks its peak:

    E_PA = max( e_PA^{Lt},  mt * e_PA^{MIMOt} )

— local (intra-cluster) transmissions are sequential so at most one local
PA radiates at a time, while all ``mt`` long-haul transmitters radiate
simultaneously.

Figure 7 plots the *total* PA energy per bit of all SU nodes over a hop:

    total = [mt > 1] * e_PA^{Lt}  +  mt * e_PA^{MIMOt}  +  [mr > 1] * mr * e_PA^{Lt}

with ``b`` chosen per configuration to minimize it.  The (1, 1) case is the
non-cooperative SISO reference, which the paper treats as the primary-user
energy scale: a cooperative configuration whose total falls 2-4 orders of
magnitude below SISO is what "below the noise floor at the PUs" means in
the analysis.

The search over ``b`` is one ``(|b|, n)`` array pass over the long-haul
distance axis (:meth:`UnderlaySystem.pa_energy_arrays`, reduced by
:func:`repro.energy.optimize.best_over_b`); :meth:`UnderlaySystem.pa_energy`
is that pass at ``n = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

import numpy as np

from repro.core.schemes import HopEnergy
from repro.energy.model import EnergyModel
from repro.energy.optimize import DEFAULT_B_RANGE, best_over_b
from repro.network.comimonet import LinkKind
from repro.utils.units import JoulesArray, MetersArray
from repro.utils.validation import (
    check_finite,
    check_non_negative_arrays,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = ["UnderlaySystem", "UnderlayEnergyResult", "UnderlayArrays"]


@dataclass(frozen=True)
class UnderlayEnergyResult:
    """PA-energy accounting for one underlay hop configuration."""

    mt: int
    mr: int
    b: int
    d: float
    distance: float
    total_pa: float  # Figure 7 quantity [J/bit]
    peak_pa: float  # Section 4's E_PA [J/bit]
    hop: HopEnergy

    def __post_init__(self) -> None:
        check_positive_int(self.mt, "mt")
        check_positive_int(self.mr, "mr")
        check_positive_int(self.b, "b")
        check_finite(self.d, "d")
        check_finite(self.distance, "distance")
        check_finite(self.total_pa, "total_pa")
        check_finite(self.peak_pa, "peak_pa")


class UnderlayArrays(NamedTuple):
    """:class:`UnderlayEnergyResult` fields (with its :class:`HopEnergy`
    sums) over a long-haul distance axis, one entry per distance."""

    mt: int
    mr: int
    d: float
    distance: MetersArray
    b: np.ndarray
    total: JoulesArray  # HopEnergy.total, circuits included
    pa_local_a: JoulesArray
    pa_longhaul: JoulesArray
    pa_local_b: JoulesArray
    total_pa: JoulesArray
    peak_pa: JoulesArray


class UnderlaySystem:
    """Algorithm 2 with the Section 6.2 energy analysis."""

    def __init__(self, model: EnergyModel, b_range: Sequence[int] = DEFAULT_B_RANGE):
        self.model = model
        self.b_range = tuple(check_positive_int(b, "b") for b in b_range)
        if not self.b_range:
            raise ValueError("b_range must be non-empty")
        self._b_values = np.array(self.b_range)

    # ------------------------------------------------------------------ #

    def pa_energy(
        self,
        p: float,
        mt: int,
        mr: int,
        d: float,
        distance: float,
        bandwidth: float,
    ) -> UnderlayEnergyResult:
        """Total and peak PA energy with ``b`` minimizing the total.

        Parameters mirror Figure 7's sweep: target BER ``p``, cooperating
        counts ``mt``/``mr``, intra-cluster range ``d`` and long-haul
        distance ``D``.  The one-point view of :meth:`pa_energy_sweep`.
        """
        return self.pa_energy_sweep(p, mt, mr, d, [distance], bandwidth)[0]

    def siso_reference(
        self, p: float, d: float, distance: float, bandwidth: float
    ) -> UnderlayEnergyResult:
        """The non-cooperative (1, 1) configuration — the PU energy scale."""
        return self.pa_energy(p, 1, 1, d, distance, bandwidth)

    def interference_margin(
        self,
        p: float,
        mt: int,
        mr: int,
        d: float,
        distance: float,
        bandwidth: float,
    ) -> float:
        """SISO-to-cooperative total-PA ratio (the "2 to 4 orders" of 6.2).

        A margin ≫ 1 means the cooperative configuration radiates that many
        times less energy than the primary-scale SISO link — the paper's
        operational criterion for staying below the primary noise floor.
        """
        siso = self.siso_reference(p, d, distance, bandwidth)
        coop = self.pa_energy(p, mt, mr, d, distance, bandwidth)
        return siso.total_pa / coop.total_pa

    def meets_noise_floor(
        self,
        p: float,
        mt: int,
        mr: int,
        d: float,
        distance: float,
        bandwidth: float,
        required_margin: float = 1.0,
    ) -> bool:
        """True when the configuration clears the interference margin."""
        if required_margin <= 0.0:
            raise ValueError("required_margin must be positive")
        return (
            self.interference_margin(p, mt, mr, d, distance, bandwidth)
            >= required_margin
        )

    def pa_energy_arrays(
        self,
        p: float,
        mt: int,
        mr: int,
        d: float,
        distances: Sequence[float],
        bandwidth: float,
    ) -> UnderlayArrays:
        """Figure 7's accounting over the long-haul distance axis in one
        array pass.

        :func:`~repro.core.schemes.hop_energy`'s sums for every
        constellation size at every distance form ``(|b|, n)`` grids built
        from the memoized per-b vectors (:meth:`EnergyModel.mimo_vectors`,
        :meth:`EnergyModel.local_vectors`) with ``+`` and ``*`` in the
        scalar operation order.  An infeasible size — refused by either
        link, or a hop whose total overflows — is NaN, and
        :func:`best_over_b` picks the first minimum of the PA total.  Each
        entry equals :func:`~repro.core.schemes.hop_energy` at the chosen
        size, bit for bit.
        """
        p = check_probability(p, "p")
        mt = check_positive_int(mt, "mt")
        mr = check_positive_int(mr, "mr")
        d = check_positive(d, "d")
        bandwidth = check_positive(bandwidth, "bandwidth")
        dist = np.asarray([check_positive(v, "distance") for v in distances], dtype=float)
        model = self.model
        local = model.local_vectors(p, d, bandwidth, self.b_range)
        mimo = model.mimo_vectors(p, mt, mr, bandwidth, self.b_range)
        mimo_pa = model.mimo_tx_pa_grid(p, mt, mr, dist, bandwidth, self.b_range)
        # hop_energy's phases; an absent phase adds 0.0, which is exact
        none = np.zeros(len(self.b_range))
        local_total = local.pa + local.tx_circuit
        pa_local_a = local.pa if mt > 1 else none
        pa_local_b = mr * local.pa if mr > 1 else none
        intra_a = local_total + (mt - 1) * local.rx_circuit if mt > 1 else none
        intra_b = mr * local_total + mr * local.rx_circuit if mr > 1 else none
        longhaul = mt * (mimo_pa + mimo.tx_circuit[:, None]) + mr * mimo.rx_circuit[:, None]
        total = intra_a[:, None] + longhaul + intra_b[:, None]
        pa_longhaul = mt * mimo_pa
        pa_total = pa_local_a[:, None] + pa_longhaul + pa_local_b[:, None]
        feasible = ~np.isnan(local.pa)[:, None] & np.isfinite(total)
        rows, best_pa_total = best_over_b(np.where(feasible, pa_total, np.nan))
        columns = np.arange(dist.size)
        chosen_longhaul = pa_longhaul[rows, columns]
        chosen_a = pa_local_a[rows]
        chosen_b = pa_local_b[rows]
        # HopEnergy.pa_peak: the long haul against each sequential local PA
        peak = chosen_longhaul
        if mt > 1:
            peak = np.maximum(peak, chosen_a)
        if mr > 1:
            peak = np.maximum(peak, chosen_b / mr)
        chosen_total = total[rows, columns]
        # the dataclass checks the rows path skips (b is checked in __init__)
        check_non_negative_arrays(
            total=chosen_total,
            pa_local_a=chosen_a,
            pa_longhaul=chosen_longhaul,
            pa_local_b=chosen_b,
            total_pa=best_pa_total,
            peak_pa=peak,
        )
        return UnderlayArrays(
            mt=mt,
            mr=mr,
            d=d,
            distance=dist,
            b=self._b_values[rows],
            total=chosen_total,
            pa_local_a=chosen_a,
            pa_longhaul=chosen_longhaul,
            pa_local_b=chosen_b,
            total_pa=best_pa_total,
            peak_pa=peak,
        )

    def pa_energy_sweep(
        self,
        p: float,
        mt: int,
        mr: int,
        d: float,
        distances: Sequence[float],
        bandwidth: float,
    ) -> List[UnderlayEnergyResult]:
        """:meth:`pa_energy_arrays` as one :class:`UnderlayEnergyResult` per
        distance, ``hop`` included; :meth:`pa_energy` is its one-point
        view."""
        a = self.pa_energy_arrays(p, mt, mr, d, distances, bandwidth)
        kind = LinkKind.classify(a.mt, a.mr)
        return [
            UnderlayEnergyResult(
                mt=a.mt,
                mr=a.mr,
                b=b,
                d=a.d,
                distance=distance,
                total_pa=total_pa,
                peak_pa=peak_pa,
                hop=HopEnergy(
                    kind=kind,
                    mt=a.mt,
                    mr=a.mr,
                    b=b,
                    total=total,
                    pa_local_a=pa_local_a,
                    pa_longhaul=pa_longhaul,
                    pa_local_b=pa_local_b,
                ),
            )
            for b, distance, total_pa, peak_pa, total, pa_local_a, pa_longhaul, pa_local_b
            in zip(
                a.b.tolist(),
                a.distance.tolist(),
                a.total_pa.tolist(),
                a.peak_pa.tolist(),
                a.total.tolist(),
                a.pa_local_a.tolist(),
                a.pa_longhaul.tolist(),
                a.pa_local_b.tolist(),
            )
        ]
