"""Scenario runtime: a city-scale CRN driven by the event kernel.

:class:`ScenarioRuntime` compiles a :class:`~repro.scenario.spec.ScenarioSpec`
into a discrete-event simulation on the `repro.simulation` kernel:

* **mobility ticks** advance a shared :class:`WaypointState` on the exact
  ``k * mobility_step_s`` grid and push positions into the ``SUNode``s;
* **traffic** is one exponential arrival chain per present node; each
  arrival routes a packet through the current CoMIMONet (intra-cluster
  local hop, or local distribution + long-haul backbone hops + local
  collection) and drains the participants' batteries with
  :class:`~repro.energy.EnergyModel` per-bit costs;
* **churn** departs nodes after exponential lifetimes and admits Poisson
  joins (new row in the walk state, fresh battery, fresh arrival chain);
* **recluster ticks** rebuild the CoMIMONet from the present-and-alive
  population on the ``k * recluster_interval_s`` grid and start a new
  routing epoch.

Between recluster ticks the backbone and every hop's ``(class, m_t, m_r,
D)`` stay fixed, so each routing epoch keeps one shortest-path tree per
source cluster and memoizes each long-haul hop's joules; the per-class
distribution and reception joules are constants of the run.  The
:class:`~repro.energy.EnergyModel` formulas are pure, so the cached floats
are exactly those a per-packet evaluation gives.

:meth:`ScenarioRuntime.run` yields one snapshot row per
``snapshot_interval_s`` of simulated time and a terminal summary row
carrying a SHA-256 digest over the canonical JSON of the snapshots — the
replay fingerprint `/v1/simulate` streams and CI's ``sim-smoke`` compares
across same-seed runs.

Determinism: every random draw comes from one of four named
``SeedSequence`` streams (:data:`~repro.scenario.spec.STREAM_NAMES`), and
event callbacks draw in kernel dispatch order, which is itself
deterministic in ``(time, seq)``.  No wall-clock enters any row; the
per-snapshot event rate is *simulated* events per *simulated* second
(wall-clock throughput is measured by the benchmarks around the runtime).
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.energy import EnergyModel
from repro.mac.csma import CsmaConfig
from repro.network.comimonet import CoMIMONet
from repro.network.mobility import RandomWaypointMobility, WaypointState
from repro.network.node import SUNode
from repro.scenario.spec import STREAM_NAMES, ScenarioSpec
from repro.simulation.kernel import HeapKernel
from repro.utils.rng import as_rng, spawn_seed_sequences

__all__ = ["DROP_REASONS", "ScenarioRuntime", "canonical_row", "rows_digest"]

#: Why an offered packet can fail to deliver (stable snapshot-row keys).
DROP_REASONS: Tuple[str, ...] = (
    "source_dead",
    "dest_dead",
    "unassociated",
    "no_route",
    "dead_cluster",
)

_MIN_LOCAL_HOP_M = 1e-6  # local_tx needs d > 0; co-located nodes hop "zero" metres


def canonical_row(row: Dict[str, Any]) -> bytes:
    """The canonical JSON encoding digested for replay comparison."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")).encode("ascii")


def rows_digest(rows: List[Dict[str, Any]]) -> str:
    """SHA-256 over the canonical encoding of a row sequence."""
    h = hashlib.sha256()
    for row in rows:
        h.update(canonical_row(row))
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class _NodeRec:
    """Book-keeping the runtime holds per ever-admitted node."""

    node: SUNode
    cls_index: int
    departed: bool = False
    arrival_eid: int = -1


class ScenarioRuntime:
    """Executes one :class:`ScenarioSpec` on an event kernel.

    Build one runtime per run — it is single-shot (:meth:`run` may be
    called once).  Two runtimes built from equal specs produce
    byte-identical row streams.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.kernel = HeapKernel()
        streams = spawn_seed_sequences(spec.seed, len(STREAM_NAMES))
        rngs = {name: as_rng(ss) for name, ss in zip(STREAM_NAMES, streams)}
        self._rng_placement = rngs["placement"]
        self._rng_mobility = rngs["mobility"]
        self._rng_traffic = rngs["traffic"]
        self._rng_churn = rngs["churn"]

        self.mobility = RandomWaypointMobility(
            arena=spec.arena_m,
            speed_range=spec.speed_range_mps,
            pause_s=spec.pause_s,
        )
        # One energy model per traffic class: packet_bits enters the
        # circuit-energy terms, so classes cannot share a model.
        self._energy = [
            EnergyModel(packet_bits=cls.packet_bits) for cls in spec.traffic
        ]
        # Per-class (distribution local_tx at the cluster diameter, local_rx,
        # mimo_rx) joules per packet: fixed for the whole run.
        p, b, bw = spec.target_ber, spec.constellation_b, spec.bandwidth_hz
        self._class_joules: List[Tuple[float, float, float]] = []
        for cls, model in zip(spec.traffic, self._energy):
            bits = float(cls.packet_bits)
            self._class_joules.append((
                model.local_tx(p, b, spec.cluster_diameter_m, bw).total * bits,
                model.local_rx(b, bw).total * bits,
                model.mimo_rx(b, bw).total * bits,
            ))
        fractions = np.array([cls.fraction for cls in spec.traffic], dtype=float)
        self._fractions = fractions / fractions.sum()
        # Deterministic per-leg MAC latency estimate: DIFS + mean initial
        # backoff + the frame/ACK exchange, from the CSMA/CA defaults.
        csma = CsmaConfig()
        self._leg_latency_us = (
            csma.difs_us + (csma.cw_min - 1) / 2.0 * csma.slot_us + csma.success_overhead_us
        )

        # --- placement stream: positions, batteries, class membership ---
        positions = self.mobility.initial_positions(spec.n_nodes, self._rng_placement)
        lo, hi = 1.0 - spec.battery_jitter, 1.0 + spec.battery_jitter
        batteries = spec.battery_j * self._rng_placement.uniform(lo, hi, size=spec.n_nodes)
        classes = self._rng_placement.choice(
            len(spec.traffic), size=spec.n_nodes, p=self._fractions
        )
        self._recs: Dict[int, _NodeRec] = {}
        for i in range(spec.n_nodes):
            node = SUNode(i, (positions[i, 0], positions[i, 1]), float(batteries[i]))
            self._recs[i] = _NodeRec(node=node, cls_index=int(classes[i]))
        self._present_ids: List[int] = list(range(spec.n_nodes))

        # --- mobility stream: the shared incremental walk ---
        self._walk: WaypointState = self.mobility.start(positions, self._rng_mobility)

        # --- network state (rebuilt on each recluster tick: one epoch) ---
        self.net: Optional[CoMIMONet] = None
        self._cluster_of: Dict[int, int] = {}
        # Backbone Dijkstra parent map per source cluster, and long-haul
        # per-member tx joules per (class, mt, mr, D), for this epoch.
        self._trees: Dict[int, Dict[Hashable, Any]] = {}
        self._hop_joules: Dict[Tuple[int, int, int, float], float] = {}
        self._rebuild_network()

        # --- counters ---
        self.offered = 0
        self.delivered = 0
        self.drops: Dict[str, int] = {reason: 0 for reason in DROP_REASONS}
        self.joins = 0
        self.leaves = 0
        self._latency_us_sum = 0.0
        self._ran = False

        # --- event fabric ---
        self._mobility_tick_no = 0
        self.kernel.schedule_at(spec.mobility_step_s, self._on_mobility_tick)
        self._recluster_tick_no = 0
        self.kernel.schedule_at(spec.recluster_interval_s, self._on_recluster_tick)
        for node_id in self._present_ids:
            self._start_arrival_chain(node_id)
            self._schedule_departure(node_id)
        if spec.churn.join_rate_per_s > 0.0 and spec.churn.max_joins > 0:
            self.kernel.schedule(
                float(self._rng_churn.exponential(1.0 / spec.churn.join_rate_per_s)),
                self._on_join,
            )

    # ------------------------------------------------------------------ #
    # population helpers                                                 #
    # ------------------------------------------------------------------ #

    def _alive_members(self, cluster_nodes: List[SUNode]) -> List[SUNode]:
        """Cluster members that can still participate in a transmission."""
        return [
            n
            for n in cluster_nodes
            if n.alive and not self._recs[n.node_id].departed
        ]

    def _live_node_count(self) -> int:
        return sum(1 for i in self._present_ids if self._recs[i].node.alive)

    def _mean_residual_j(self) -> float:
        if not self._present_ids:
            return 0.0
        total = sum(self._recs[i].node.remaining_j for i in self._present_ids)
        return total / len(self._present_ids)

    # ------------------------------------------------------------------ #
    # mobility & reclustering                                            #
    # ------------------------------------------------------------------ #

    def _on_mobility_tick(self) -> None:
        spec = self.spec
        # Step every row (including departed nodes) so the mobility
        # stream's draw order is independent of churn outcomes.
        self.mobility.step(self._walk, spec.mobility_step_s, self._rng_mobility)
        pos = self._walk.positions
        for node_id in self._present_ids:
            row = pos[node_id]
            self._recs[node_id].node.move_to((float(row[0]), float(row[1])))
        self._mobility_tick_no += 1
        t_next = (self._mobility_tick_no + 1) * spec.mobility_step_s
        if t_next <= spec.duration_s:
            self.kernel.schedule_at(t_next, self._on_mobility_tick)

    def _rebuild_network(self) -> None:
        members = [
            self._recs[i].node
            for i in self._present_ids
            if self._recs[i].node.alive
        ]
        self._trees.clear()
        self._hop_joules.clear()
        self._cluster_of.clear()
        if not members:
            self.net = None
            return
        self.net = CoMIMONet(
            members,
            cluster_diameter=self.spec.cluster_diameter_m,
            longhaul_range=self.spec.longhaul_range_m,
            max_cluster_size=self.spec.max_cluster_size,
            backbone=self.spec.backbone,
        )
        for cluster in self.net.clusters:
            for node in cluster.nodes:
                self._cluster_of[node.node_id] = cluster.cluster_id

    def _on_recluster_tick(self) -> None:
        self._rebuild_network()
        self._recluster_tick_no += 1
        t_next = (self._recluster_tick_no + 1) * self.spec.recluster_interval_s
        if t_next <= self.spec.duration_s:
            self.kernel.schedule_at(t_next, self._on_recluster_tick)

    # ------------------------------------------------------------------ #
    # churn                                                              #
    # ------------------------------------------------------------------ #

    def _schedule_departure(self, node_id: int) -> None:
        rate = self.spec.churn.leave_rate_per_node_s
        if rate <= 0.0:
            return
        lifetime = float(self._rng_churn.exponential(1.0 / rate))
        self.kernel.schedule(lifetime, lambda: self._on_leave(node_id))

    def _on_leave(self, node_id: int) -> None:
        rec = self._recs[node_id]
        if rec.departed:
            return
        rec.departed = True
        self.leaves += 1
        # Handle-free cancellation of the node's pending arrival.
        if rec.arrival_eid >= 0:
            self.kernel.cancel(rec.arrival_eid)
            rec.arrival_eid = -1
        idx = bisect_left(self._present_ids, node_id)
        if idx < len(self._present_ids) and self._present_ids[idx] == node_id:
            self._present_ids.pop(idx)

    def _on_join(self) -> None:
        spec = self.spec
        self.joins += 1
        # Position/waypoint/speed for the new row come from the churn
        # stream so the mobility stream stays a pure function of ticks.
        row = self.mobility.admit(self._walk, self._rng_churn)
        lo, hi = 1.0 - spec.battery_jitter, 1.0 + spec.battery_jitter
        battery = spec.battery_j * float(self._rng_churn.uniform(lo, hi))
        cls_index = int(self._rng_churn.choice(len(spec.traffic), p=self._fractions))
        pos = self._walk.positions[row]
        node = SUNode(row, (float(pos[0]), float(pos[1])), battery)
        self._recs[row] = _NodeRec(node=node, cls_index=cls_index)
        insort(self._present_ids, row)
        self._start_arrival_chain(row)
        self._schedule_departure(row)
        if self.joins < spec.churn.max_joins:
            self.kernel.schedule(
                float(self._rng_churn.exponential(1.0 / spec.churn.join_rate_per_s)),
                self._on_join,
            )

    # ------------------------------------------------------------------ #
    # traffic                                                            #
    # ------------------------------------------------------------------ #

    def _start_arrival_chain(self, node_id: int) -> None:
        rec = self._recs[node_id]
        cls = self.spec.traffic[rec.cls_index]
        delay = float(self._rng_traffic.exponential(1.0 / cls.rate_per_node_s))
        rec.arrival_eid = self.kernel.schedule(delay, lambda: self._on_arrival(node_id))

    def _on_arrival(self, node_id: int) -> None:
        rec = self._recs[node_id]
        if rec.departed:  # backstop; departures cancel the chain
            return
        dest_id = self._pick_destination(node_id)
        if dest_id is None:
            self.offered += 1
            self.drops["no_route"] += 1
        else:
            self._deliver(node_id, dest_id, rec.cls_index)
        self._start_arrival_chain(node_id)

    def _pick_destination(self, src_id: int) -> Optional[int]:
        """A uniform present peer, skipping the source (one RNG draw)."""
        n = len(self._present_ids)
        if n < 2:
            return None
        i = int(self._rng_traffic.integers(0, n - 1))
        src_pos = bisect_left(self._present_ids, src_id)
        if i >= src_pos:
            i += 1
        return self._present_ids[i]

    def _route_path(self, src_cid: int, dst_cid: int) -> Optional[List[int]]:
        """Backbone cluster-id path (``shortest_weighted_path``'s), read off
        the source's Dijkstra parent map, which is kept for the epoch."""
        parent = self._trees.get(src_cid)
        if parent is None:
            assert self.net is not None
            parent = self.net.backbone.dijkstra(src_cid)[1]
            self._trees[src_cid] = parent
        if dst_cid not in parent:
            return None
        path = [dst_cid]
        while path[-1] != src_cid:
            path.append(parent[path[-1]])
        return path[::-1]

    def _hop_tx_joules(self, cls_index: int, mt: int, mr: int, distance: float) -> float:
        """Per-member long-haul tx joules of one packet, memoized per epoch."""
        key = (cls_index, mt, mr, distance)
        joules = self._hop_joules.get(key)
        if joules is None:
            spec = self.spec
            joules = self._energy[cls_index].mimo_tx(
                spec.target_ber, spec.constellation_b, mt, mr, distance, spec.bandwidth_hz
            ).total * float(spec.traffic[cls_index].packet_bits)
            self._hop_joules[key] = joules
        return joules

    def _deliver(self, src_id: int, dst_id: int, cls_index: int) -> None:
        spec = self.spec
        self.offered += 1
        src = self._recs[src_id].node
        dst = self._recs[dst_id].node
        if not src.alive:
            self.drops["source_dead"] += 1
            return
        if not dst.alive:
            self.drops["dest_dead"] += 1
            return
        src_cid = self._cluster_of.get(src_id)
        dst_cid = self._cluster_of.get(dst_id)
        if self.net is None or src_cid is None or dst_cid is None:
            # Joined (or resurrected by nothing — dead at cluster time)
            # since the last recluster tick: not yet in any cluster.
            self.drops["unassociated"] += 1
            return

        cls = spec.traffic[cls_index]
        model = self._energy[cls_index]
        bits = float(cls.packet_bits)
        p, b, bw = spec.target_ber, spec.constellation_b, spec.bandwidth_hz
        distribute_j, local_rx_j, mimo_rx_j = self._class_joules[cls_index]

        if src_cid == dst_cid:
            # Intra-cluster: one local SISO hop, source to destination.
            d = max(src.distance_to(dst), _MIN_LOCAL_HOP_M)
            src.drain(model.local_tx(p, b, d, bw).total * bits)
            dst.drain(local_rx_j)
            self.delivered += 1
            self._latency_us_sum += self._leg_latency_us
            return

        path = self._route_path(src_cid, dst_cid)
        if path is None:
            self.drops["no_route"] += 1
            return
        clusters = [self.net.cluster(cid) for cid in path]
        rosters = [self._alive_members(c.nodes) for c in clusters]
        if any(not roster for roster in rosters):
            # A relay cluster exhausted every member since the recluster.
            self.drops["dead_cluster"] += 1
            return

        legs = 2 + (len(path) - 1)  # distribute + long-haul hops + collect
        # 1. Local distribution inside the source cluster (bounded by the
        #    cluster diameter), so cooperating members hold the packet.
        src.drain(distribute_j)
        for member in rosters[0]:
            if member is not src:
                member.drain(local_rx_j)
        # 2. Long-haul cooperative hops along the backbone.
        for hop in range(len(path) - 1):
            tx_roster, rx_roster = rosters[hop], rosters[hop + 1]
            distance = self.net.cluster_graph.weight(path[hop], path[hop + 1])
            per_tx_j = self._hop_tx_joules(
                cls_index, len(tx_roster), len(rx_roster), distance
            )
            for member in tx_roster:
                member.drain(per_tx_j)
            for member in rx_roster:
                member.drain(mimo_rx_j)
        # 3. Local collection: the destination cluster's head forwards to
        #    the destination node (skipped when the head IS the node).
        head = clusters[-1].head
        if head is not dst:
            d = max(head.distance_to(dst), _MIN_LOCAL_HOP_M)
            head.drain(model.local_tx(p, b, d, bw).total * bits)
            dst.drain(local_rx_j)
        self.delivered += 1
        self._latency_us_sum += legs * self._leg_latency_us

    # ------------------------------------------------------------------ #
    # snapshots & the run loop                                           #
    # ------------------------------------------------------------------ #

    def _snapshot(self, t: float, events_delta: int) -> Dict[str, Any]:
        ratio = self.delivered / self.offered if self.offered else 1.0
        mean_latency = (
            self._latency_us_sum / self.delivered / 1e3 if self.delivered else 0.0
        )
        return {
            "row": "snapshot",
            "t_s": round(t, 9),
            "events_processed": self.kernel.events_processed,
            "events_per_sim_s": round(events_delta / self.spec.snapshot_interval_s, 6),
            "present_nodes": len(self._present_ids),
            "live_nodes": self._live_node_count(),
            "clusters": self.net.n_clusters if self.net is not None else 0,
            "mean_residual_j": round(self._mean_residual_j(), 12),
            "offered": self.offered,
            "delivered": self.delivered,
            "delivery_ratio": round(ratio, 9),
            "dropped": dict(self.drops),
            "mean_latency_ms": round(mean_latency, 6),
            "joins": self.joins,
            "leaves": self.leaves,
        }

    def run(self) -> Iterator[Dict[str, Any]]:
        """Yield snapshot rows, then a terminal summary row (single-shot).

        The summary's ``digest`` is a SHA-256 over the canonical JSON of
        the snapshot rows — equal digests mean bit-identical replays.
        """
        if self._ran:
            raise RuntimeError("ScenarioRuntime.run() is single-shot; build a new runtime")
        self._ran = True
        spec = self.spec
        digest = hashlib.sha256()
        n_snapshots = int(np.ceil(spec.duration_s / spec.snapshot_interval_s))
        last_processed = 0
        for k in range(1, n_snapshots + 1):
            t = min(k * spec.snapshot_interval_s, spec.duration_s)
            self.kernel.run(until=t)
            processed = self.kernel.events_processed
            row = self._snapshot(t, processed - last_processed)
            last_processed = processed
            digest.update(canonical_row(row))
            digest.update(b"\n")
            yield row
        yield {
            "row": "summary",
            "duration_s": spec.duration_s,
            "events_processed": self.kernel.events_processed,
            "offered": self.offered,
            "delivered": self.delivered,
            "delivery_ratio": round(
                self.delivered / self.offered if self.offered else 1.0, 9
            ),
            "dropped": dict(self.drops),
            "joins": self.joins,
            "leaves": self.leaves,
            "live_nodes": self._live_node_count(),
            "digest": digest.hexdigest(),
        }
