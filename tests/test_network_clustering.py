"""d-clustering tests: invariants via hypothesis, determinism, caps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.points import pairwise_distances
from repro.network.clustering import (
    _cell_size,
    cluster_diameter,
    d_cluster,
    validate_clustering,
)
from repro.network.mobility import RandomWaypointMobility

point_sets = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: np.random.default_rng(seed).uniform(0, 50, size=(seed % 40 + 1, 2))
)


class TestInvariants:
    @given(point_sets, st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=40)
    def test_partition_and_diameter(self, pts, d):
        clusters = d_cluster(pts, d)
        validate_clustering(pts, clusters, d)  # raises on violation

    @given(point_sets, st.floats(min_value=0.5, max_value=20.0), st.integers(1, 4))
    @settings(max_examples=40)
    def test_size_cap(self, pts, d, cap):
        clusters = d_cluster(pts, d, max_size=cap)
        validate_clustering(pts, clusters, d, max_size=cap)


class TestBehaviour:
    def test_far_points_separate(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert len(d_cluster(pts, 1.0)) == 2

    def test_close_points_merge(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
        assert len(d_cluster(pts, 2.0)) == 1

    def test_tiny_d_gives_singletons(self):
        pts = np.random.default_rng(0).uniform(0, 10, (20, 2))
        clusters = d_cluster(pts, 1e-6)
        assert len(clusters) == 20

    def test_huge_d_gives_one_cluster(self):
        pts = np.random.default_rng(1).uniform(0, 10, (20, 2))
        assert len(d_cluster(pts, 1e6)) == 1

    def test_deterministic(self):
        pts = np.random.default_rng(2).uniform(0, 30, (25, 2))
        assert d_cluster(pts, 5.0) == d_cluster(pts, 5.0)

    def test_empty_input(self):
        assert d_cluster(np.zeros((0, 2)), 1.0) == []

    def test_greedy_compactness(self):
        """Two well-separated blobs of 3 nodes end up as two clusters."""
        rng = np.random.default_rng(3)
        blob1 = rng.uniform(0, 1, (3, 2))
        blob2 = rng.uniform(0, 1, (3, 2)) + 100.0
        clusters = d_cluster(np.vstack([blob1, blob2]), 3.0)
        assert sorted(map(sorted, clusters)) == [[0, 1, 2], [3, 4, 5]]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            d_cluster(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            d_cluster(np.zeros((2, 2)), 1.0, max_size=0)


class TestDiameter:
    def test_singleton_zero(self):
        assert cluster_diameter(np.array([[1.0, 1.0]]), [0]) == 0.0

    def test_pair(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert cluster_diameter(pts, [0, 1]) == pytest.approx(5.0)


class TestValidateErrors:
    def test_detects_missing_node(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            validate_clustering(pts, [[0, 1]], d=1.0)

    def test_detects_duplicate(self):
        pts = np.zeros((2, 2))
        with pytest.raises(ValueError):
            validate_clustering(pts, [[0, 1], [1]], d=1.0)

    def test_detects_oversized_diameter(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        with pytest.raises(ValueError):
            validate_clustering(pts, [[0, 1]], d=1.0)

    def test_detects_cap_violation(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            validate_clustering(pts, [[0, 1, 2]], d=1.0, max_size=2)


def _reference_d_cluster(positions, d, max_size=None):
    """The n x n d-clustering ``d_cluster`` replaced: one full distance
    matrix, the whole nearest-unvisited scan order first, then every
    cluster tried in creation order for every scanned node."""
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    n = pts.shape[0]
    dist = pairwise_distances(pts)
    order = []
    visited = np.zeros(n, dtype=bool)
    current = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    for _ in range(n):
        order.append(current)
        visited[current] = True
        if len(order) == n:
            break
        remaining = np.where(~visited)[0]
        current = int(remaining[np.argmin(dist[current, remaining])])
    clusters = []
    for idx in order:
        for cluster in clusters:
            if max_size is not None and len(cluster) >= max_size:
                continue
            if all(dist[idx, member] <= d for member in cluster):
                cluster.append(idx)
                break
        else:
            clusters.append([idx])
    for cluster in clusters:
        cluster.sort()
    return clusters


def _positions(kind):
    if kind == "lattice":
        # 15 m integer lattice: equal scan distances everywhere, and pairs
        # exactly d apart for d = 15 or 30.
        return np.array([(15.0 * (i % 12), 15.0 * (i // 12)) for i in range(144)])
    if kind == "duplicates":
        # Co-located pairs: zero distances and argmin ties at every step.
        return np.repeat(_positions("lattice")[::3], 2, axis=0)
    rng = np.random.default_rng(int(kind.split("-")[1]))
    pts = rng.uniform(0.0, 300.0, size=(200, 2))
    if kind.startswith("mobile"):
        # Positions after mobility ticks: the runtime's recluster inputs.
        mobility = RandomWaypointMobility(arena=(300.0, 300.0), speed_range=(1.0, 15.0))
        state = mobility.start(pts, rng)
        for _ in range(7):
            mobility.step(state, 1.0, rng)
        pts = state.positions.copy()
    return pts


class TestMatchesNxNReference:
    """The O(n)-memory scan against the n x n one: equal cluster lists."""

    @pytest.mark.parametrize("max_size", [None, 1, 2, 3, 4])
    @pytest.mark.parametrize("d", [15.0, 21.3, 30.0, 60.0])
    @pytest.mark.parametrize(
        "kind", ["random-0", "random-1", "lattice", "duplicates", "mobile-2"]
    )
    def test_equal_clusters(self, kind, d, max_size):
        pts = _positions(kind)
        clusters = d_cluster(pts, d, max_size)
        assert clusters == _reference_d_cluster(pts, d, max_size)
        validate_clustering(pts, clusters, d, max_size)

    def test_pair_exactly_d_apart_by_the_matrix_formula(self):
        """A pair whose ``pairwise_distances`` value is ``d`` clusters
        together, although the 1-D ``norm`` (a BLAS dot) of the same
        difference reads one ulp more on some hosts."""
        rng = np.random.default_rng(2026)
        for v in rng.uniform(-100.0, 100.0, size=(20_000, 2)):
            if np.linalg.norm(v) > np.linalg.norm(v[None, :], axis=-1)[0]:
                break
        else:
            pytest.skip("the 1-D norm never differs from the row norm here")
        pts = np.array([[0.0, 0.0], v])
        d = float(pairwise_distances(pts)[0, 1])
        assert d_cluster(pts, d) == _reference_d_cluster(pts, d) == [[0, 1]]


class TestGridScanMatchesNxNReference:
    """The grid scan on inputs that stress its cells, against the n x n
    reference: equal cluster lists."""

    @staticmethod
    def _assert_matches(pts, d, max_size):
        clusters = d_cluster(pts, d, max_size)
        assert clusters == _reference_d_cluster(pts, d, max_size)
        validate_clustering(pts, clusters, d, max_size)
        return clusters

    @pytest.mark.parametrize("max_size", [None, 2, 4])
    @pytest.mark.parametrize("d", [8.0, 16.0, 32.0, 48.0])
    def test_points_on_cell_boundaries(self, d, max_size):
        # Multiples of 8 m around the origin: on the boundary of every
        # power-of-two cell from 8 m up, with pairs exactly d apart.
        grid = [(8.0 * i, 8.0 * j) for i in range(-6, 7) for j in range(-6, 7)]
        pts = np.array(grid)[np.random.default_rng(1).permutation(len(grid))]
        self._assert_matches(pts, d, max_size)

    @pytest.mark.parametrize("max_size", [None, 3])
    @pytest.mark.parametrize("d", [3.0, 5.0, 9.0])
    def test_every_point_in_one_cell(self, d, max_size):
        # [0, 8)^2 is one cell of the within-d grid for every d here.
        pts = np.random.default_rng(2).uniform(0.0, 8.0, size=(300, 2))
        self._assert_matches(pts, d, max_size)

    @pytest.mark.parametrize("max_size", [None, 2])
    def test_every_point_in_one_place(self, max_size):
        pts = np.tile([[3.25, -7.5]], (50, 1))
        clusters = self._assert_matches(pts, 1.0, max_size)
        assert len(clusters) == (1 if max_size is None else 25)

    @pytest.mark.parametrize("max_size", [None, 3])
    def test_d_beyond_the_arena_diagonal(self, max_size):
        pts = np.random.default_rng(3).uniform(0.0, 100.0, size=(200, 2))
        clusters = self._assert_matches(pts, 2.0 * np.hypot(100.0, 100.0), max_size)
        assert len(clusters) == (1 if max_size is None else 67)

    @pytest.mark.parametrize("max_size", [None, 4])
    def test_two_thousand_nodes(self, max_size):
        pts = np.random.default_rng(4).uniform(0.0, 800.0, size=(2000, 2))
        self._assert_matches(pts, 60.0, max_size)

    def test_pair_exactly_d_apart_where_hypot_differs(self):
        """A pair exactly d apart by ``pairwise_distances``' formula, where
        ``math.hypot`` reads one ulp off that distance."""
        rng = np.random.default_rng(7)
        for v in rng.uniform(-100.0, 100.0, size=(20_000, 2)).tolist():
            by_formula = math.sqrt(v[0] * v[0] + v[1] * v[1])
            if math.hypot(*v) != by_formula:
                break
        else:
            pytest.skip("math.hypot never differs from the formula here")
        pts = np.array([[0.0, 0.0], v])
        assert float(pairwise_distances(pts)[0, 1]) == by_formula
        for d in (by_formula, min(by_formula, math.hypot(*v))):
            assert d_cluster(pts, d) == _reference_d_cluster(pts, d)

    def test_scan_tie_that_hypot_would_break(self):
        """Two nodes at one distance by the formula, where ``math.hypot``
        puts the lower-index one farther: the scan takes it first."""
        rng = np.random.default_rng(11)
        for u in rng.uniform(10.0, 20.0, size=(2000, 2)).tolist():
            t = 2e-9  # a turn small enough to keep the norm's last bits
            v = [u[0] * math.cos(t) - u[1] * math.sin(t), u[0] * math.sin(t) + u[1] * math.cos(t)]
            same = math.sqrt(u[0] * u[0] + u[1] * u[1]) == math.sqrt(v[0] * v[0] + v[1] * v[1])
            if same and math.hypot(*u) != math.hypot(*v):
                break
        else:
            pytest.skip("no formula tie that math.hypot breaks here")
        far, near = sorted([u, v], key=lambda w: -math.hypot(*w))
        pts = np.array([[0.0, 0.0], far, near])
        # max_size=1: one cluster per node, created in scan order
        assert self._assert_matches(pts, 1e-3, 1) == [[0], [1], [2]]

    def test_ring_search_looks_one_ring_past_an_exact_tie(self):
        """After ring 1 the best distance equals the ring bound (one cell),
        and a lower-index node two rings out reads the same distance (its
        offset, one cell plus half an ulp, rounds down to one cell): the
        search must look at ring 2 and take it."""
        cell = 64.0
        x = np.nextafter(cell, 0.0)  # last float of cell 0
        pts = np.array([[x, 32.0], [2.0 * cell, 32.0], [x, 96.0]])
        assert _cell_size(float(np.ptp(pts, axis=0).max()) / np.sqrt(3), 128.0) == cell
        dist = pairwise_distances(pts)
        assert dist[0, 1] == dist[0, 2] == cell
        clusters = self._assert_matches(pts, 16.0, None)
        assert clusters == [[0], [1], [2]]
