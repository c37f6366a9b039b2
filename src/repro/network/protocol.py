"""Protocol-level simulation of data sessions over a CoMIMONet.

Section 2.1 sketches the runtime system around the cooperative schemes:
head nodes coordinate hops, CSMA/CA arbitrates the channel, data relays
along the spanning-tree backbone, and "the clusters and the routing
backbone are reconfigurable".  :class:`SessionSimulator` executes that
loop hop by hop on a session clock:

* a session's payload is split into chunks;
* each chunk traverses the backbone route hop by hop — every hop pays a
  CSMA/CA channel-access delay (sampled from a calibrated MAC model) plus
  the scheme's airtime (:func:`repro.core.schemes.hop_timing`), and drains
  the participants' batteries with the scheme's energy
  (:func:`repro.core.schemes.hop_energy`);
* when a node dies the network reconfigures (head re-election, dead
  clusters dropped, backbone rebuilt) and the session re-routes; if no
  route survives, the session ends early.

The output separates delivered payload, wall-clock latency, MAC overhead
and per-cluster energy — the cross-layer accounting of ref [9].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.energy.model import EnergyModel
from repro.energy.optimize import DEFAULT_B_RANGE, minimize_over_b
from repro.mac.csma import CsmaCaSimulator, CsmaConfig
from repro.network.comimonet import CoMIMONet, CooperativeLink
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = ["SessionResult", "SessionSimulator"]


@dataclass
class SessionResult:
    """Outcome of one simulated data session."""

    requested_bits: float
    delivered_bits: float = 0.0
    elapsed_s: float = 0.0
    airtime_s: float = 0.0
    mac_delay_s: float = 0.0
    hops_completed: int = 0
    reconfigurations: int = 0
    energy_by_cluster_j: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_non_negative(self.requested_bits, "requested_bits")
        check_non_negative(self.delivered_bits, "delivered_bits")
        check_non_negative(self.elapsed_s, "elapsed_s")
        check_non_negative(self.airtime_s, "airtime_s")
        check_non_negative(self.mac_delay_s, "mac_delay_s")
        check_non_negative_int(self.hops_completed, "hops_completed")
        check_non_negative_int(self.reconfigurations, "reconfigurations")

    @property
    def completed(self) -> bool:
        return self.delivered_bits >= self.requested_bits

    @property
    def total_energy_j(self) -> float:
        return sum(self.energy_by_cluster_j.values())

    @property
    def goodput_bps(self) -> float:
        return self.delivered_bits / self.elapsed_s if self.elapsed_s > 0 else 0.0


class SessionSimulator:
    """Run end-to-end sessions over a CoMIMONet with energy + MAC costs.

    Parameters
    ----------
    network:
        The cluster network (mutated: batteries drain, reconfigurations
        happen).
    model:
        Energy model pricing every hop.
    bandwidth:
        System bandwidth ``B`` [Hz].
    target_ber:
        Per-hop BER target ``p``.
    mac_config:
        CSMA/CA parameters; per-hop access delays are drawn from an
        empirical delay distribution simulated once at construction (with
        ``mac_contenders`` saturated stations — neighbouring heads).
    cooperative:
        True = hops use all alive members (Algorithm 2); False = SISO
        head-to-head hops (the baseline).
    """

    def __init__(
        self,
        network: CoMIMONet,
        model: EnergyModel,
        bandwidth: float = 10e3,
        target_ber: float = 0.001,
        mac_config: CsmaConfig = CsmaConfig(),
        mac_contenders: int = 3,
        cooperative: bool = True,
        rng: RngLike = None,
    ) -> None:
        self.network = network
        self.model = model
        self.bandwidth = check_positive(bandwidth, "bandwidth")
        self.target_ber = check_probability(target_ber, "target_ber")
        self.cooperative = bool(cooperative)
        self.rng = as_rng(rng)
        check_positive_int(mac_contenders, "mac_contenders")

        mac = CsmaCaSimulator(
            n_stations=mac_contenders, config=mac_config, saturated=True, rng=self.rng
        )
        stats = mac.run(2_000_000)
        delays = np.asarray(stats.access_delays_us, dtype=float)
        self._mac_delays_s = (
            delays * 1e-6 if delays.size else np.array([mac_config.difs_us * 1e-6])
        )

    # ------------------------------------------------------------------ #

    def _draw_mac_delay(self) -> float:
        return float(self.rng.choice(self._mac_delays_s))

    def _hop_parameters(self, link: CooperativeLink) -> Tuple[int, int, int]:
        """(mt, mr, best_b) for one hop under the current policy."""
        # Imported here: repro.core.schemes itself imports repro.network
        # modules, so a module-level import would be circular.
        from repro.core.schemes import hop_energy

        if self.cooperative:
            mt, mr = link.mt, link.mr
        else:
            mt = mr = 1
        best = minimize_over_b(
            lambda b: hop_energy(
                self.model,
                self.target_ber,
                b,
                mt,
                mr,
                max(self.network.cluster_diameter, 1e-6),
                link.length_m,
                self.bandwidth,
            ).total,
            DEFAULT_B_RANGE,
        )
        return mt, mr, best.b

    def _charge_hop(
        self,
        link: CooperativeLink,
        mt: int,
        mr: int,
        b: int,
        chunk_bits: float,
        result: SessionResult,
    ) -> None:
        """Drain batteries for one chunk over one hop."""
        from repro.core.schemes import hop_energy

        hop = hop_energy(
            self.model,
            self.target_ber,
            b,
            mt,
            mr,
            max(self.network.cluster_diameter, 1e-6),
            link.length_m,
            self.bandwidth,
        )
        tx = self.network.cluster(link.tx_cluster_id)
        rx = self.network.cluster(link.rx_cluster_id)
        energy = hop.total * chunk_bits
        if self.cooperative:
            participants = tx.alive_nodes + rx.alive_nodes
        else:
            participants = [tx.head, rx.head]
        share = energy / len(participants)
        for node in participants:
            node.consume(min(share, node.remaining_j))
        for cid in (link.tx_cluster_id, link.rx_cluster_id):
            result.energy_by_cluster_j[cid] = (
                result.energy_by_cluster_j.get(cid, 0.0) + energy / 2.0
            )

    def run_session(
        self,
        source_cluster_id: int,
        dest_cluster_id: int,
        n_bits: float,
        chunk_bits: float = 100_000.0,
        max_reconfigurations: int = 50,
    ) -> SessionResult:
        """Deliver ``n_bits`` from source to destination cluster.

        Returns a :class:`SessionResult`; ``completed`` is False when the
        network partitioned or ran out of energy first.
        """
        from repro.core.schemes import hop_timing

        check_positive(n_bits, "n_bits")
        check_positive(chunk_bits, "chunk_bits")
        result = SessionResult(requested_bits=n_bits)

        remaining = n_bits
        while remaining > 0:
            try:
                route = self.network.route(source_cluster_id, dest_cluster_id)
            except (ValueError, KeyError):
                break  # partitioned
            if not route and source_cluster_id != dest_cluster_id:
                break
            chunk = min(chunk_bits, remaining)
            try:
                for link in route:
                    mt, mr, b = self._hop_parameters(link)
                    mac_delay = self._draw_mac_delay()
                    timing = hop_timing(chunk, b, mt, mr, self.bandwidth)
                    result.elapsed_s += mac_delay + timing.total_s
                    result.mac_delay_s += mac_delay
                    result.airtime_s += timing.total_s
                    self._charge_hop(link, mt, mr, b, chunk, result)
                    result.hops_completed += 1
            except (RuntimeError, ValueError):
                # a battery died mid-hop: reconfigure and retry the chunk
                if result.reconfigurations >= max_reconfigurations:
                    break
                self.network.reconfigure()
                result.reconfigurations += 1
                if not any(
                    c.cluster_id == source_cluster_id for c in self.network.clusters
                ) or not any(
                    c.cluster_id == dest_cluster_id for c in self.network.clusters
                ):
                    break
                continue
            remaining -= chunk
            result.delivered_bits += chunk
            # periodic maintenance: rotate heads as batteries drain
            if any(not c.is_alive for c in self.network.clusters):
                self.network.reconfigure()
                result.reconfigurations += 1
        return result
