"""The four per-bit energy formulas of Section 2.3.

:class:`EnergyModel` evaluates, for a given constant set
(:class:`repro.constants.SystemConstants`) and an ``e_bar_b`` provider:

* formula (1) — ``e^{Lt}``: local/intra-cluster transmission
  (``e_PA^{Lt} + e_C^{Lt}``, kappa-law path loss, AWGN, M-QAM);
* formula (2) — ``e^{Lr}``: local reception (circuit only);
* formula (3) — ``e^{MIMOt}(mt, mr)``: long-haul cooperative transmission
  per participating node (``e_PA^{MIMOt} + e_C^{MIMOt}``, square-law path
  loss, Rayleigh STBC link);
* formula (4) — ``e^{MIMOr}``: long-haul reception (circuit only).

Each method also exposes its PA/circuit split through
:class:`EnergyBreakdown`, because the underlay analysis (Section 4) needs
the PA component alone — the interference a primary receiver sees comes
from radiated (PA) energy, not from circuit consumption.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.constants import PAPER_CONSTANTS, SystemConstants
from repro.energy.ebar import solve_ebar
from repro.utils.units import (
    Hertz,
    Joules,
    JoulesArray,
    LinearRatioArray,
    Meters,
    MetersArray,
    Watts,
)
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "EnergyModel",
    "EnergyBreakdown",
    "MimoVectors",
    "LocalVectors",
    "DEFAULT_PACKET_BITS",
    "B_VECTOR_MEMO_SIZE",
]

#: Default information size ``n`` for the synchronization-transient term
#: ``P_syn T_tr / n`` (per-bit amortization of the 5 us synthesizer settle).
DEFAULT_PACKET_BITS = 10_000

#: Entries one :class:`EnergyModel` keeps per memo (``e_bar_b`` values,
#: long-haul and local per-b vector sets); the least recently used entry is
#: dropped first.
B_VECTOR_MEMO_SIZE = 1024


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-bit energy split into power-amplifier and circuit components [J]."""

    pa: Joules
    circuit: Joules

    def __post_init__(self) -> None:
        check_non_negative(self.pa, "pa")
        check_non_negative(self.circuit, "circuit")

    @property
    def total(self) -> Joules:
        """``pa + circuit`` — the quantity the formulas denote ``e^{...}``."""
        return self.pa + self.circuit


class MimoVectors(NamedTuple):
    """Per-b inputs of formulas (3) and (4) for one ``(p, mt, mr, B)`` key.

    Entry ``k`` belongs to the ``k``-th size of the ``b_range`` the vectors
    were built for and holds the float the scalar formula computes, the
    last two being the products :meth:`EnergyModel.mimo_tx` and
    :meth:`EnergyModel.max_mimo_distance` form before they touch the
    distance or the budget.  NaN wherever ``e_bar_b`` is refused.  The
    arrays are read-only: they live in the model's memo.
    """

    alpha: LinearRatioArray  # PA inefficiency alpha_b
    tx_circuit: JoulesArray  # e_C^{MIMOt} = (P_ct + P_syn)/(bB)
    rx_circuit: JoulesArray  # e^{MIMOr} = (P_cr + P_syn)/(bB)
    ebar: JoulesArray  # e_bar_b
    pa_per_gain: JoulesArray  # (1/mt)(1 + alpha) e_bar_b
    reach_denominator: JoulesArray  # (1 + alpha) e_bar_b longhaul_gain(1)


class LocalVectors(NamedTuple):
    """Per-b formula (1) and (2) energies of one ``(p, d, B)`` local link.

    Every entry of a size that :meth:`EnergyModel.local_tx` or
    :meth:`EnergyModel.local_rx` refuses is NaN.  Read-only, like
    :class:`MimoVectors`.
    """

    pa: JoulesArray  # e_PA^{Lt}
    tx_circuit: JoulesArray  # e_C^{Lt}
    rx_circuit: JoulesArray  # e^{Lr}


def _frozen(values: Sequence[object]) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


class EnergyModel:
    """Evaluator for formulas (1)-(4) with pluggable ``e_bar_b`` provider.

    Parameters
    ----------
    constants:
        Radio constant set; defaults to the paper's Section 2.3 values.
    ebar_provider:
        Callable ``(p, b, mt, mr) -> e_bar_b`` [J].  Defaults to the exact
        solver :func:`repro.energy.ebar.solve_ebar`; pass an
        :class:`repro.energy.table.EbarTable` lookup to emulate the
        algorithms' preloaded-table behaviour (identical numbers on grid
        points, O(1) per query).
    packet_bits:
        Information size ``n`` amortizing the synchronization transient.
    ebar_convention:
        Normalization convention forwarded to the default solver; ignored
        when an explicit ``ebar_provider`` is given.  See
        :func:`repro.energy.ebar.average_ber`.

    Successful ``e_bar_b`` queries are memoized per ``(p, b, mt, mr)``, at
    most :data:`B_VECTOR_MEMO_SIZE` keys: the experiment sweeps re-ask for
    the same points thousands of times (every distance cell re-prices the
    same link), and the providers are pure functions of their arguments, so
    caching is exact.
    """

    def __init__(
        self,
        constants: SystemConstants = PAPER_CONSTANTS,
        ebar_provider: Optional[Callable[[float, int, int, int], float]] = None,
        packet_bits: int = DEFAULT_PACKET_BITS,
        ebar_convention: str = "paper",
    ) -> None:
        self.constants = constants
        self.ebar_convention = ebar_convention
        memo = functools.lru_cache(maxsize=B_VECTOR_MEMO_SIZE)
        self._ebar: Callable[[float, int, int, int], float] = memo(
            ebar_provider
            or (
                lambda p, b, mt, mr: solve_ebar(
                    p, b, mt, mr, n0=constants.n0_w_hz, convention=ebar_convention
                )
            )
        )
        self.packet_bits = check_positive_int(packet_bits, "packet_bits")
        self._mimo_vectors: Callable[
            [float, int, int, Hertz, Tuple[int, ...]], MimoVectors
        ] = memo(self._build_mimo_vectors)
        self._local_vectors: Callable[
            [float, Meters, Hertz, Tuple[int, ...]], LocalVectors
        ] = memo(self._build_local_vectors)
        self._local_tx_terms: Callable[[float, int, Hertz], Tuple[float, Joules]] = memo(
            self._build_local_tx_terms
        )

    # ------------------------------------------------------------------ #
    # e_bar_b passthrough                                                #
    # ------------------------------------------------------------------ #

    def ebar(self, p: float, b: int, mt: int, mr: int) -> Joules:
        """Required received energy per bit over the ``mt x mr`` link [J]."""
        return self._ebar(p, b, mt, mr)

    # ------------------------------------------------------------------ #
    # Formula (1): local transmission                                    #
    # ------------------------------------------------------------------ #

    def local_tx(
        self,
        p: float,
        b: int,
        d: Meters,
        bandwidth: Hertz,
    ) -> EnergyBreakdown:
        """``e^{Lt}`` — per-bit energy to transmit over a ``d``-meter local hop.

        ``e_PA^{Lt} = (4/3)(1+alpha) (2^b - 1)/b * ln(4 (1 - 2^{-b/2})/(b p))
        * G_d * N_f * sigma^2`` and ``e_C^{Lt} = P_ct/(bB) + P_syn T_tr / n``.
        """
        p = check_probability(p, "p")
        b = check_positive_int(b, "b")
        d = check_positive(d, "d")
        bandwidth = check_positive(bandwidth, "bandwidth")
        c = self.constants
        pa_per_gain, circuit = self._local_tx_terms(p, b, bandwidth)
        pa = pa_per_gain * c.local_gain(d) * c.noise_figure_linear * c.sigma2_w_hz
        return EnergyBreakdown(pa=float(pa), circuit=float(circuit))

    def local_tx_terms(self, p: float, b: int, bandwidth: Hertz) -> Tuple[float, Joules]:
        """Formula (1)'s distance-free parts, ``(pa_per_gain, circuit)``.

        ``pa_per_gain`` is ``(4/3)(1+alpha)(2^b - 1)/b * ln(4(1 - 2^{-b/2})
        /(bp))``, so that ``pa_per_gain * local_gain(d) * N_f * sigma^2 +
        circuit``, in that order, is :meth:`local_tx`'s ``total`` bit for
        bit.  Memoized per ``(p, b, bandwidth)``, at most
        :data:`B_VECTOR_MEMO_SIZE` keys.
        """
        p = check_probability(p, "p")
        b = check_positive_int(b, "b")
        bandwidth = check_positive(bandwidth, "bandwidth")
        return self._local_tx_terms(p, b, bandwidth)

    def _build_local_tx_terms(
        self, p: float, b: int, bandwidth: Hertz
    ) -> Tuple[float, Joules]:
        c = self.constants
        alpha = c.peak_to_average_alpha(b)
        log_arg = 4.0 * (1.0 - 2.0 ** (-b / 2.0)) / (b * p)
        if log_arg <= 1.0:
            raise ValueError(
                f"target BER p={p} too lax for b={b}: the AWGN inversion "
                "ln(4(1-2^{-b/2})/(bp)) is non-positive"
            )
        pa_per_gain = (4.0 / 3.0) * (1.0 + alpha) * (2.0**b - 1.0) / b * np.log(log_arg)
        circuit = c.p_ct_w / (b * bandwidth) + c.p_syn_w * c.t_tr_s / self.packet_bits
        return float(pa_per_gain), float(circuit)

    # ------------------------------------------------------------------ #
    # Formula (2): local reception                                       #
    # ------------------------------------------------------------------ #

    def local_rx(self, b: int, bandwidth: Hertz) -> EnergyBreakdown:
        """``e^{Lr} = P_cr/(bB) + P_syn T_tr / n`` — circuit-only reception."""
        b = check_positive_int(b, "b")
        bandwidth = check_positive(bandwidth, "bandwidth")
        c = self.constants
        circuit = c.p_cr_w / (b * bandwidth) + c.p_syn_w * c.t_tr_s / self.packet_bits
        return EnergyBreakdown(pa=0.0, circuit=float(circuit))

    # ------------------------------------------------------------------ #
    # Formula (3): long-haul cooperative transmission                    #
    # ------------------------------------------------------------------ #

    def mimo_tx(
        self,
        p: float,
        b: int,
        mt: int,
        mr: int,
        distance: Meters,
        bandwidth: Hertz,
    ) -> EnergyBreakdown:
        """``e^{MIMOt}(mt, mr)`` — per *participating node* long-haul tx energy.

        ``e_PA^{MIMOt} = (1/mt)(1+alpha) e_bar_b (4 pi D)^2/(Gt Gr lambda^2)
        M_l N_f`` and ``e_C^{MIMOt} = (P_ct + P_syn)/(bB)``.
        """
        p = check_probability(p, "p")
        b = check_positive_int(b, "b")
        mt = check_positive_int(mt, "mt")
        mr = check_positive_int(mr, "mr")
        distance = check_positive(distance, "distance")
        bandwidth = check_positive(bandwidth, "bandwidth")
        c = self.constants
        alpha = c.peak_to_average_alpha(b)
        ebar = self.ebar(p, b, mt, mr)
        pa = (1.0 / mt) * (1.0 + alpha) * ebar * c.longhaul_gain(distance)
        circuit = self._mimo_circuit(c.p_ct_w, b, bandwidth)
        return EnergyBreakdown(pa=float(pa), circuit=float(circuit))

    # ------------------------------------------------------------------ #
    # Formula (4): long-haul reception                                   #
    # ------------------------------------------------------------------ #

    def mimo_rx(self, b: int, bandwidth: Hertz) -> EnergyBreakdown:
        """``e^{MIMOr} = (P_cr + P_syn)/(bB)`` — circuit-only reception."""
        b = check_positive_int(b, "b")
        bandwidth = check_positive(bandwidth, "bandwidth")
        circuit = self._mimo_circuit(self.constants.p_cr_w, b, bandwidth)
        return EnergyBreakdown(pa=0.0, circuit=float(circuit))

    def _mimo_circuit(self, power_w: Watts, b: int, bandwidth: Hertz) -> Joules:
        """``(P + P_syn)/(bB)``, the circuit term of formulas (3) and (4)."""
        return (power_w + self.constants.p_syn_w) / (b * bandwidth)

    # ------------------------------------------------------------------ #
    # Per-b vectors for the constellation-size searches                  #
    # ------------------------------------------------------------------ #

    def mimo_vectors(
        self, p: float, mt: int, mr: int, bandwidth: Hertz, b_range: Sequence[int]
    ) -> MimoVectors:
        """Formula (3)/(4) inputs for every ``b`` in ``b_range`` at once.

        Each entry is the scalar formula's own float (``alpha_b``, the two
        circuit terms and :meth:`ebar`), so array arithmetic on these
        vectors in the scalar operation order reproduces :meth:`mimo_tx`,
        :meth:`mimo_rx` and :meth:`max_mimo_distance` bit for bit.  A size
        the ``e_bar_b`` provider refuses holds NaN in ``ebar``.  Memoized
        per ``(p, mt, mr, bandwidth, b_range)``, at most
        :data:`B_VECTOR_MEMO_SIZE` keys.
        """
        return self._mimo_vectors(p, mt, mr, bandwidth, tuple(b_range))

    def local_vectors(
        self, p: float, d: Meters, bandwidth: Hertz, b_range: Sequence[int]
    ) -> LocalVectors:
        """:meth:`local_tx` / :meth:`local_rx` energies for every ``b`` at once.

        NaN marks a size either method refuses (a lax ``p`` makes the AWGN
        inversion of formula (1) non-positive for the larger sizes).  Memoized
        per ``(p, d, bandwidth, b_range)`` like :meth:`mimo_vectors`.
        """
        return self._local_vectors(p, d, bandwidth, tuple(b_range))

    def mimo_tx_pa_grid(
        self,
        p: float,
        mt: int,
        mr: int,
        distances: MetersArray,
        bandwidth: Hertz,
        b_range: Sequence[int],
    ) -> JoulesArray:
        """PA component of :meth:`mimo_tx` for every ``b`` at every distance.

        Row ``k``, column ``j`` is ``mimo_tx(p, b_range[k], mt, mr,
        distances[j], bandwidth).pa`` bit for bit (same operations, same
        order), NaN for a size the ``e_bar_b`` provider refuses.  The
        distances must already be validated as positive and finite.
        """
        v = self.mimo_vectors(p, mt, mr, bandwidth, b_range)
        return v.pa_per_gain[:, None] * self.constants.longhaul_gain(distances)

    def _build_mimo_vectors(
        self, p: float, mt: int, mr: int, bandwidth: Hertz, b_range: Tuple[int, ...]
    ) -> MimoVectors:
        p = check_probability(p, "p")
        mt = check_positive_int(mt, "mt")
        mr = check_positive_int(mr, "mr")
        bandwidth = check_positive(bandwidth, "bandwidth")
        sizes = [check_positive_int(b, "b") for b in b_range]
        c = self.constants
        ebar = []
        for b in sizes:
            try:
                ebar.append(self.ebar(p, b, mt, mr))
            except ValueError:
                ebar.append(np.nan)
        alpha = _frozen([c.peak_to_average_alpha(b) for b in sizes])
        e_bar = _frozen(ebar)
        return MimoVectors(
            alpha=alpha,
            tx_circuit=_frozen([self._mimo_circuit(c.p_ct_w, b, bandwidth) for b in sizes]),
            rx_circuit=_frozen([self._mimo_circuit(c.p_cr_w, b, bandwidth) for b in sizes]),
            ebar=e_bar,
            pa_per_gain=_frozen((1.0 / mt) * (1.0 + alpha) * e_bar),
            reach_denominator=_frozen((1.0 + alpha) * e_bar * c.longhaul_gain(1.0)),
        )

    def _build_local_vectors(
        self, p: float, d: Meters, bandwidth: Hertz, b_range: Tuple[int, ...]
    ) -> LocalVectors:
        p = check_probability(p, "p")
        d = check_positive(d, "d")
        bandwidth = check_positive(bandwidth, "bandwidth")
        rows = []
        for b in b_range:
            b = check_positive_int(b, "b")
            try:
                tx = self.local_tx(p, b, d, bandwidth)
                rows.append((tx.pa, tx.circuit, self.local_rx(b, bandwidth).circuit))
            except ValueError:
                rows.append((np.nan, np.nan, np.nan))
        pa, tx_circuit, rx_circuit = _frozen(rows).reshape(-1, 3).T
        return LocalVectors(pa=pa, tx_circuit=tx_circuit, rx_circuit=rx_circuit)

    # ------------------------------------------------------------------ #
    # Distance inversion (overlay analysis, Section 3)                   #
    # ------------------------------------------------------------------ #

    def max_mimo_distance(
        self,
        energy_budget: Joules,
        p: float,
        b: int,
        mt: int,
        mr: int,
        bandwidth: Hertz,
        extra_circuit: Joules = 0.0,
    ) -> Meters:
        """Largest link length such that ``e^{MIMOt} + extra_circuit <= budget``.

        The long-haul PA term is exactly quadratic in ``D``
        (``longhaul_gain(D) = C D^2``), so the inversion is closed-form::

            D = sqrt( (budget - e_C - extra) * mt / ((1+alpha) e_bar_b C) )

        Returns 0.0 when the budget cannot even cover the circuit energy
        (the relay is infeasible at any distance).
        """
        check_positive(energy_budget, "energy_budget")
        p = check_probability(p, "p")
        b = check_positive_int(b, "b")
        mt = check_positive_int(mt, "mt")
        mr = check_positive_int(mr, "mr")
        bandwidth = check_positive(bandwidth, "bandwidth")
        if extra_circuit < 0.0:
            raise ValueError("extra_circuit must be non-negative")
        c = self.constants
        alpha = c.peak_to_average_alpha(b)
        circuit = self._mimo_circuit(c.p_ct_w, b, bandwidth)
        headroom = energy_budget - circuit - extra_circuit
        if headroom <= 0.0:
            return 0.0
        ebar = self.ebar(p, b, mt, mr)
        unit_gain = c.longhaul_gain(1.0)  # C * 1^2
        d_squared = headroom * mt / ((1.0 + alpha) * ebar * unit_gain)
        return float(np.sqrt(d_squared))
