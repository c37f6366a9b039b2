"""Cluster (virtual MIMO node) tests: head election, geometry, liveness."""

import pytest

from repro.network.cluster import Cluster
from repro.network.node import SUNode


def _cluster(batteries, positions=None):
    positions = positions or [(float(i), 0.0) for i in range(len(batteries))]
    nodes = [SUNode(i, pos, battery_j=b) for i, (pos, b) in enumerate(zip(positions, batteries))]
    return Cluster(0, nodes), nodes


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Cluster(0, [])

    def test_rejects_duplicate_ids(self):
        nodes = [SUNode(1, (0.0, 0.0)), SUNode(1, (1.0, 0.0))]
        with pytest.raises(ValueError):
            Cluster(0, nodes)

    def test_size(self):
        cluster, _ = _cluster([10.0, 10.0, 10.0])
        assert cluster.size == 3


class TestHeadElection:
    def test_most_battery_wins(self):
        cluster, nodes = _cluster([5.0, 20.0, 10.0])
        assert cluster.head is nodes[1]

    def test_tie_breaks_on_lower_id(self):
        cluster, nodes = _cluster([10.0, 10.0])
        assert cluster.head is nodes[0]

    def test_reelection_after_drain(self):
        cluster, nodes = _cluster([20.0, 10.0])
        nodes[0].consume(15.0)  # head drops to 5 J
        assert cluster.elect_head() is nodes[1]

    def test_dead_nodes_not_electable(self):
        cluster, nodes = _cluster([1.0, 10.0])
        nodes[1].consume(10.0)
        assert cluster.elect_head() is nodes[0]

    def test_all_dead_raises(self):
        cluster, nodes = _cluster([1.0])
        nodes[0].consume(1.0)
        with pytest.raises(RuntimeError):
            cluster.elect_head()

    def test_members_excludes_head(self):
        cluster, nodes = _cluster([5.0, 20.0, 10.0])
        assert nodes[1] not in cluster.members
        assert len(cluster.members) == 2


class TestGeometry:
    def test_centroid_and_diameter(self):
        cluster, _ = _cluster([10.0] * 2, positions=[(0.0, 0.0), (2.0, 0.0)])
        assert cluster.diameter == pytest.approx(2.0)

    def test_singleton_diameter_zero(self):
        cluster, _ = _cluster([10.0])
        assert cluster.diameter == 0.0

    def test_distance_to_is_max_pair(self):
        a, _ = _cluster([10.0] * 2, positions=[(0.0, 0.0), (1.0, 0.0)])
        b_nodes = [SUNode(10, (10.0, 0.0)), SUNode(11, (12.0, 0.0))]
        b = Cluster(1, b_nodes)
        assert a.distance_to(b) == pytest.approx(12.0)  # (0,0) to (12,0)
        assert b.distance_to(a) == pytest.approx(12.0)


class TestLiveness:
    def test_alive_while_any_member_lives(self):
        cluster, nodes = _cluster([1.0, 10.0])
        nodes[0].consume(1.0)
        assert cluster.is_alive
        assert cluster.alive_nodes == [nodes[1]]
