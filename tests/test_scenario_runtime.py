"""Scenario-runtime tests: determinism, golden digests, dynamics."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.runtime import ScenarioRuntime, rows_digest
from repro.scenario.spec import ChurnSpec, ScenarioSpec, TrafficClass

FAST = ScenarioSpec(
    n_nodes=30,
    arena_m=(400.0, 400.0),
    duration_s=20.0,
    seed=11,
    snapshot_interval_s=5.0,
)

CHURNY = ScenarioSpec(
    n_nodes=25,
    arena_m=(300.0, 300.0),
    duration_s=30.0,
    seed=3,
    churn=ChurnSpec(leave_rate_per_node_s=0.01, join_rate_per_s=0.4),
    snapshot_interval_s=10.0,
)

#: The benchmark-of-record ``sim-city`` scenario body (seed 1001).
SIM_CITY = ScenarioSpec(
    n_nodes=500,
    arena_m=(800.0, 800.0),
    duration_s=60.0,
    seed=1001,
    churn=ChurnSpec(leave_rate_per_node_s=0.002, join_rate_per_s=0.5),
    snapshot_interval_s=5.0,
)

#: Two traffic classes on a BFS backbone, with batteries small enough that
#: most clusters die mid-run: per-class joule caches and clamped drains.
DRAINING = ScenarioSpec(
    n_nodes=80,
    arena_m=(500.0, 500.0),
    duration_s=30.0,
    seed=21,
    battery_j=8.0,
    backbone="bfs",
    max_cluster_size=3,
    churn=ChurnSpec(leave_rate_per_node_s=0.005, join_rate_per_s=0.3),
    traffic=(
        TrafficClass(name="light", fraction=0.7, rate_per_node_s=0.2),
        TrafficClass(name="heavy", fraction=0.3, rate_per_node_s=1.0, packet_bits=12000),
    ),
)


def run_rows(spec):
    return list(ScenarioRuntime(spec).run())


class TestShape:
    def test_snapshot_cadence_and_summary(self):
        rows = run_rows(FAST)
        snapshots = [r for r in rows if r["row"] == "snapshot"]
        assert len(snapshots) == 4  # 20 s at 5 s intervals
        assert [r["t_s"] for r in snapshots] == [5.0, 10.0, 15.0, 20.0]
        assert rows[-1]["row"] == "summary"

    def test_snapshot_fields(self):
        row = run_rows(FAST)[0]
        for key in (
            "t_s",
            "events_processed",
            "events_per_sim_s",
            "present_nodes",
            "live_nodes",
            "clusters",
            "mean_residual_j",
            "offered",
            "delivered",
            "delivery_ratio",
            "dropped",
            "mean_latency_ms",
            "joins",
            "leaves",
        ):
            assert key in row, key

    def test_summary_consistent_with_last_snapshot(self):
        rows = run_rows(FAST)
        last, summary = rows[-2], rows[-1]
        assert summary["offered"] == last["offered"]
        assert summary["delivered"] == last["delivered"]
        assert summary["events_processed"] >= last["events_processed"]

    def test_summary_digest_commits_to_snapshots(self):
        rows = run_rows(FAST)
        assert rows[-1]["digest"] == rows_digest(rows[:-1])


class TestDeterminism:
    def test_bit_identical_replay(self):
        assert run_rows(FAST) == run_rows(FAST)

    def test_bit_identical_replay_with_churn(self):
        assert run_rows(CHURNY) == run_rows(CHURNY)

    def test_churny_golden_digest(self):
        """Pinned replay fingerprint: any change to event order, random
        draws or row content moves it."""
        summary = run_rows(CHURNY)[-1]
        assert summary["digest"] == (
            "28796df6ba2e2112881096fb9704867327ecf5c649620edbbd69285ec1ed1002"
        )
        assert summary["events_processed"] == 497

    def test_sim_city_golden_digest(self):
        """Pinned 500-node city fingerprint: cluster-graph, routing and
        energy-charging shortcuts must leave every row bit-identical."""
        summary = run_rows(SIM_CITY)[-1]
        assert summary["digest"] == (
            "2ad995ea18d926bb1ab4006d983c71b78868a7fa76c230e8adca87cafcbc605f"
        )
        assert summary["events_processed"] == 14890

    def test_draining_multiclass_golden_digest(self):
        summary = run_rows(DRAINING)[-1]
        assert summary["digest"] == (
            "f7e4442bdb3deb3f232daa6acd1127eb8c72de4dd77d666018ae1a3af1ced149"
        )
        assert summary["dropped"]["dead_cluster"] > summary["delivered"] > 0

    def test_seed_changes_outcome(self):
        import dataclasses

        a = run_rows(FAST)
        b = run_rows(dataclasses.replace(FAST, seed=12))
        assert a != b


class TestEpochRoutes:
    """Routes read off the per-epoch Dijkstra trees against
    ``backbone.shortest_weighted_path`` for every ordered cluster pair."""

    @staticmethod
    def _assert_routes_match(rt):
        """Compare every ordered pair; return (disconnected pairs, longest path)."""
        ids = [c.cluster_id for c in rt.net.clusters]
        disconnected, longest = 0, 0
        for src in ids:
            for dst in ids:
                expected = rt.net.backbone.shortest_weighted_path(src, dst)
                assert rt._route_path(src, dst) == expected, (src, dst)
                disconnected += expected is None
                longest = max(longest, len(expected or ()))
        return disconnected, longest

    @pytest.mark.parametrize("backbone", ["mst", "bfs"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_every_pair_matches_reference(self, backbone, seed):
        spec = ScenarioSpec(
            n_nodes=60,
            arena_m=(600.0, 600.0),
            duration_s=20.0,
            seed=seed,
            longhaul_range_m=130.0,  # short enough to split the backbone
            backbone=backbone,
        )
        rt = ScenarioRuntime(spec)
        disconnected, longest = self._assert_routes_match(rt)
        assert disconnected > 0 and longest >= 4
        # A new epoch: nodes move, the network is rebuilt, trees restart.
        for _ in range(5):
            rt._on_mobility_tick()
        rt._on_recluster_tick()
        disconnected, longest = self._assert_routes_match(rt)
        assert disconnected > 0 and longest >= 4


def _alive_present(rt, cluster_id):
    """The reference roster: every member alive and not departed, now."""
    return [
        n
        for n in rt.net.cluster(cluster_id).nodes
        if n.alive and not rt._recs[n.node_id].departed
    ]


class TestEpochRosters:
    """Rosters kept for the epoch against the alive, present members at
    each packet, read through the (m_t, m_r) each long-haul hop prices."""

    @staticmethod
    def _relay_route(seed):
        """A runtime, a route across two or more relay clusters of two or
        more members, and the list each hop's (m_t, m_r) is recorded in."""
        spec = ScenarioSpec(
            n_nodes=60,
            arena_m=(600.0, 600.0),
            duration_s=20.0,
            seed=seed,
            longhaul_range_m=130.0,
        )
        rt = ScenarioRuntime(spec)
        ids = [c.cluster_id for c in rt.net.clusters]
        path = next(
            p
            for p in (rt._route_path(a, b) for a in ids for b in ids)
            if p and len(p) >= 4 and all(rt.net.cluster(c).size >= 2 for c in p[1:-1])
        )
        hops = []
        priced = rt._hop_tx_joules

        def record(cls_index, mt, mr, distance):
            hops.append((mt, mr))
            return priced(cls_index, mt, mr, distance)

        rt._hop_tx_joules = record
        return rt, path, hops

    @staticmethod
    def _send(rt, path):
        """One packet from the source cluster's head to the destination's."""
        src = rt.net.cluster(path[0]).head.node_id
        dst = rt.net.cluster(path[-1]).head.node_id
        rt._deliver(src, dst, rt._recs[src].cls_index)

    @staticmethod
    def _expected(rt, path):
        sizes = [len(_alive_present(rt, c)) for c in path]
        return list(zip(sizes[:-1], sizes[1:]))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_death_inside_a_packet_keeps_its_m(self, seed):
        rt, path, hops = self._relay_route(seed)
        victim = rt.net.cluster(path[1]).nodes[-1]
        mimo_rx_j = rt._class_joules[rt._recs[victim.node_id].cls_index][2]
        # Less than one reception left: hop 0 empties it, hop 1 sends from it.
        victim.drain(victim.remaining_j - mimo_rx_j / 2.0)
        expected = self._expected(rt, path)
        self._send(rt, path)
        assert not victim.alive
        assert hops == expected
        # The next packet no longer counts it.
        hops.clear()
        shrunk = self._expected(rt, path)
        assert shrunk[0][1] == expected[0][1] - 1
        self._send(rt, path)
        assert hops == shrunk

    @pytest.mark.parametrize("seed", [5, 6])
    def test_death_outside_the_route_leaves_the_roster(self, seed):
        rt, path, hops = self._relay_route(seed)
        self._send(rt, path)  # every roster on the route is now kept
        victim, peer = rt.net.cluster(path[2]).nodes[:2]
        cls_index = rt._recs[victim.node_id].cls_index
        local_rx_j = rt._class_joules[cls_index][1]
        # An intra-cluster packet the victim sends empties its battery.
        victim.drain(victim.remaining_j - local_rx_j / 2.0)
        rt._deliver(victim.node_id, peer.node_id, cls_index)
        assert not victim.alive
        hops.clear()
        expected = self._expected(rt, path)
        assert expected[1][1] == len(rt.net.cluster(path[2]).nodes) - 1
        self._send(rt, path)
        assert hops == expected

    @pytest.mark.parametrize("seed", [5, 6])
    def test_departure_leaves_the_roster(self, seed):
        rt, path, hops = self._relay_route(seed)
        self._send(rt, path)
        victim = rt.net.cluster(path[1]).nodes[-1]
        rt._on_leave(victim.node_id)
        consumed = victim.consumed_j
        hops.clear()
        expected = self._expected(rt, path)
        assert expected[0][1] == len(rt.net.cluster(path[1]).nodes) - 1
        self._send(rt, path)
        assert hops == expected
        assert victim.consumed_j == consumed


#: Two classes whose packet sizes differ, so their circuit terms differ.
TWO_CLASSES = ScenarioSpec(
    n_nodes=20,
    arena_m=(300.0, 300.0),
    duration_s=5.0,
    seed=4,
    traffic=(
        TrafficClass(name="light", fraction=0.5, rate_per_node_s=0.2),
        TrafficClass(name="heavy", fraction=0.5, rate_per_node_s=0.2, packet_bits=12000),
    ),
)


@functools.lru_cache(maxsize=None)
def _two_class_runtime():
    return ScenarioRuntime(TWO_CLASSES)


class TestLegPrices:
    """Per-leg joules read off per-class constants against the formulas'
    own ``local_tx(p, b, d, B).total * bits`` and ``mimo_tx(...).total *
    bits``, compared with ``==``."""

    @given(
        cls_index=st.integers(0, 1),
        d=st.floats(min_value=1e-6, max_value=TWO_CLASSES.cluster_diameter_m),
    )
    @settings(max_examples=300, deadline=None)
    def test_local_legs(self, cls_index, d):
        rt, spec = _two_class_runtime(), TWO_CLASSES
        bits = float(spec.traffic[cls_index].packet_bits)
        expected = rt._energy[cls_index].local_tx(
            spec.target_ber, spec.constellation_b, d, spec.bandwidth_hz
        ).total * bits
        assert rt._local_tx_joules(cls_index, d) == expected

    @given(
        cls_index=st.integers(0, 1),
        mt=st.integers(1, 4),
        mr=st.integers(1, 4),
        distance=st.floats(
            min_value=0.0, max_value=TWO_CLASSES.longhaul_range_m, exclude_min=True
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_long_haul_hops(self, cls_index, mt, mr, distance):
        rt, spec = _two_class_runtime(), TWO_CLASSES
        bits = float(spec.traffic[cls_index].packet_bits)
        expected = rt._energy[cls_index].mimo_tx(
            spec.target_ber, spec.constellation_b, mt, mr, distance, spec.bandwidth_hz
        ).total * bits
        assert rt._hop_tx_joules(cls_index, mt, mr, distance) == expected
        assert rt._hop_tx_joules(cls_index, mt, mr, distance) == expected  # memo hit

    @pytest.mark.parametrize("cls_index", [0, 1])
    def test_dense_local_sweep(self, cls_index):
        """The PA term is small next to the circuit term inside a cluster,
        so a last-bit slip in it rarely reaches the total.  Nodes drift
        apart within an epoch, so sweep d far past the diameter too, where
        the PA term dominates."""
        rt, spec = _two_class_runtime(), TWO_CLASSES
        bits = float(spec.traffic[cls_index].packet_bits)
        model = rt._energy[cls_index]
        rng = np.random.default_rng(cls_index)
        exponents = rng.uniform(-6.0, np.log10(100.0 * spec.cluster_diameter_m), 20_000)
        for d in (10.0**exponents).tolist():
            expected = model.local_tx(
                spec.target_ber, spec.constellation_b, d, spec.bandwidth_hz
            ).total * bits
            assert rt._local_tx_joules(cls_index, d) == expected, d

    def test_classes_differ(self):
        rt = _two_class_runtime()
        assert rt._local_tx_joules(0, 10.0) != rt._local_tx_joules(1, 10.0)
        assert rt._local_terms[0][1] != rt._local_terms[1][1]


class TestDynamics:
    def test_traffic_flows(self):
        summary = run_rows(FAST)[-1]
        assert summary["offered"] > 0
        assert 0 < summary["delivered"] <= summary["offered"]
        drops = summary["dropped"]
        assert summary["delivered"] + sum(drops.values()) == summary["offered"]

    def test_batteries_drain(self):
        rows = run_rows(FAST)
        snapshots = [r for r in rows if r["row"] == "snapshot"]
        assert snapshots[-1]["mean_residual_j"] < snapshots[0]["mean_residual_j"]

    def test_churn_happens(self):
        summary = run_rows(CHURNY)[-1]
        assert summary["joins"] > 0
        assert summary["leaves"] > 0

    def test_tiny_batteries_kill_nodes(self):
        import dataclasses

        spec = dataclasses.replace(FAST, battery_j=0.2)
        summary = run_rows(spec)[-1]
        assert summary["live_nodes"] < FAST.n_nodes

    def test_multi_class_traffic(self):
        import dataclasses

        spec = dataclasses.replace(
            FAST,
            traffic=(
                TrafficClass(name="light", fraction=0.7, rate_per_node_s=0.2),
                TrafficClass(
                    name="heavy", fraction=0.3, rate_per_node_s=1.0, packet_bits=12000
                ),
            ),
        )
        assert run_rows(spec) == run_rows(spec)
        assert run_rows(spec)[-1]["offered"] > 0


class TestDigestHelpers:
    def test_rows_digest_stable(self):
        rows = [{"b": 1, "a": 2.0}, {"x": "y"}]
        assert rows_digest(rows) == rows_digest([dict(reversed(r.items())) for r in rows])

    def test_rows_digest_order_sensitive(self):
        rows = [{"a": 1}, {"a": 2}]
        assert rows_digest(rows) != rows_digest(list(reversed(rows)))


class TestValidationPlumbs:
    def test_spec_validation_reaches_runtime(self):
        with pytest.raises(ValueError):
            ScenarioRuntime(ScenarioSpec(n_nodes=0))
