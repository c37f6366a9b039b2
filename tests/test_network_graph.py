"""Graph algorithm tests, cross-validated against networkx."""

import heapq

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import Graph, build_communication_graph


def _random_graph(seed: int, n: int = 12, p: float = 0.35):
    rng = np.random.default_rng(seed)
    g = Graph()
    for i in range(n):
        g.add_vertex(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j, float(rng.uniform(0.1, 5.0)))
    return g


def _to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    for u, v, w in g.edges():
        out.add_edge(u, v, weight=w)
    return out


class TestBasics:
    def test_add_edge_creates_vertices(self):
        g = Graph()
        g.add_edge("a", "b", 2.0)
        assert set(g.vertices) == {"a", "b"}
        assert g.has_edge("a", "b") and g.has_edge("b", "a")
        assert g.weight("a", "b") == 2.0
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph().add_edge(1, 1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Graph().add_edge(1, 2, -1.0)

    def test_remove_vertex(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.remove_vertex(2)
        assert 2 not in g.vertices
        assert not g.has_edge(1, 2)
        assert g.degree(1) == 0

    def test_remove_missing_vertex(self):
        with pytest.raises(KeyError):
            Graph().remove_vertex(7)


class TestComponents:
    def test_two_components(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        comps = {frozenset(c) for c in g.connected_components()}
        assert comps == {frozenset({1, 2}), frozenset({3, 4})}
        assert not g.is_connected()

    def test_empty_graph_connected(self):
        assert Graph().is_connected()

    @given(st.integers(0, 1000))
    @settings(max_examples=20)
    def test_matches_networkx(self, seed):
        g = _random_graph(seed)
        ours = sorted(sorted(c) for c in g.connected_components())
        theirs = sorted(sorted(c) for c in nx.connected_components(_to_nx(g)))
        assert ours == theirs


class TestShortestPaths:
    @given(st.integers(0, 1000))
    @settings(max_examples=20)
    def test_bfs_hop_count_matches_networkx(self, seed):
        g = _random_graph(seed)
        gx = _to_nx(g)
        for target in (1, 5, 11):
            ours = g.bfs_shortest_path(0, target)
            if ours is None:
                assert not nx.has_path(gx, 0, target)
            else:
                assert len(ours) - 1 == nx.shortest_path_length(gx, 0, target)

    @given(st.integers(0, 1000))
    @settings(max_examples=20)
    def test_dijkstra_matches_networkx(self, seed):
        g = _random_graph(seed)
        gx = _to_nx(g)
        dist, _ = g.dijkstra(0)
        theirs = nx.single_source_dijkstra_path_length(gx, 0)
        assert set(dist) == set(theirs)
        for v, d in theirs.items():
            assert dist[v] == pytest.approx(d)

    def test_weighted_path_is_consistent(self):
        g = Graph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 1.0)
        g.add_edge("a", "c", 5.0)
        assert g.shortest_weighted_path("a", "c") == ["a", "b", "c"]

    def test_trivial_path(self):
        g = Graph()
        g.add_vertex("x")
        assert g.bfs_shortest_path("x", "x") == ["x"]

    def test_missing_vertex_raises(self):
        with pytest.raises(KeyError):
            Graph().bfs_shortest_path(0, 1)


class TestSpanningTrees:
    @given(st.integers(0, 1000))
    @settings(max_examples=20)
    def test_mst_weight_matches_networkx(self, seed):
        g = _random_graph(seed, p=0.6)
        if not g.is_connected():
            return
        ours = sum(w for _, _, w in g.minimum_spanning_tree().edges())
        theirs = sum(
            d["weight"] for _, _, d in nx.minimum_spanning_tree(_to_nx(g)).edges(data=True)
        )
        assert ours == pytest.approx(theirs)

    def test_mst_is_tree(self):
        g = _random_graph(3, p=0.8)
        if g.is_connected():
            tree = g.minimum_spanning_tree()
            assert tree.n_edges == tree.n_vertices - 1
            assert tree.is_connected()

    def test_mst_requires_connected(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_vertex(3)
        with pytest.raises(ValueError):
            g.minimum_spanning_tree()

    def test_bfs_tree_spans_component(self):
        g = _random_graph(5, p=0.5)
        comp = next(c for c in g.connected_components() if 0 in c)
        tree = g.bfs_tree(0)
        assert set(tree.vertices) == comp
        assert tree.n_edges == len(comp) - 1


def _lazy_prim(graph, component):
    """The lazy Prim ``prim_tree`` replaced: every offer to a vertex outside
    the tree goes on the heap, ties broken in push order."""
    root = next(iter(component))
    tree = Graph()
    tree.add_vertex(root)
    visited, counter, heap = {root}, 0, []
    for u in graph.neighbors(root):
        counter += 1
        heapq.heappush(heap, (graph.weight(root, u), counter, root, u))
    while heap and len(visited) < len(component):
        w, _, u, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        tree.add_edge(u, v, w)
        for x in graph.neighbors(v):
            if x not in visited:
                counter += 1
                heapq.heappush(heap, (graph.weight(v, x), counter, v, x))
    return tree


def _lattice(side, offset, rng, diagonals):
    """A side x side grid of weight-1 edges (diagonals weigh 2), with
    vertex labels spread so set order is not ascending order."""

    def label(i, j):
        return offset + 1031 * (i * side + j)

    edges = []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                edges.append((label(i, j), label(i + 1, j), 1.0))
            if j + 1 < side:
                edges.append((label(i, j), label(i, j + 1), 1.0))
            if diagonals and i + 1 < side and j + 1 < side:
                edges.append((label(i, j), label(i + 1, j + 1), 2.0))
    rng.shuffle(edges)
    return edges


class TestPrimMatchesLazyHeap:
    """The eager ``prim_tree`` against the lazy heap version: the same
    ``edges()`` list, in order, for every component."""

    @staticmethod
    def _assert_same_trees(g):
        components = g.connected_components()
        for component in components:
            ours, ref = g.prim_tree(component), _lazy_prim(g, component)
            assert ours.vertices == ref.vertices
            assert ours.edges() == ref.edges()
        return components

    @pytest.mark.parametrize("diagonals", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_heavy_lattices(self, seed, diagonals):
        rng = np.random.default_rng(seed)
        g = Graph()
        for k, side in enumerate((7, 5, 9)):
            for u, v, w in _lattice(side, k, rng, diagonals):
                g.add_edge(u, v, w)
        components = self._assert_same_trees(g)
        assert len(components) == 3
        assert any(next(iter(c)) != min(c) for c in components)

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_component_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(1200)[:120].tolist()
        g = Graph()
        for v in labels:
            g.add_vertex(v)
        for block in (labels[:40], labels[40:80], labels[80:]):  # no edges across
            for i, u in enumerate(block):
                for v in block[i + 1 :]:
                    if rng.random() < 0.1:
                        # few distinct weights: many ties
                        g.add_edge(u, v, float(rng.integers(1, 4)))
        components = self._assert_same_trees(g)
        assert sum(len(c) > 1 for c in components) >= 3

    def test_dense_two_weight_graph(self):
        rng = np.random.default_rng(9)
        g = Graph()
        for i in range(60):
            for j in range(i + 1, 60):
                g.add_edge(i, j, float(rng.integers(1, 3)))
        self._assert_same_trees(g)


class TestAddNeighbors:
    def test_matches_add_edge(self):
        rng = np.random.default_rng(4)
        bulk, single = Graph(), Graph()
        for g in (bulk, single):
            for v in range(30):
                g.add_vertex(v)
        for u in range(30):
            later = [v for v in range(u + 1, 30) if rng.random() < 0.5]
            weights = rng.uniform(0.0, 9.0, len(later)).tolist()
            bulk.add_neighbors(u, later, weights)
            for v, w in zip(later, weights):
                single.add_edge(u, v, w)
        assert bulk.vertices == single.vertices
        for v in bulk.vertices:
            assert list(bulk._adj[v].items()) == list(single._adj[v].items())


class TestCommunicationGraph:
    def test_range_threshold(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        g = build_communication_graph(pts, radio_range=1.5)
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 2)

    def test_edge_weight_is_distance(self):
        pts = np.array([[0.0, 0.0], [0.0, 2.0]])
        g = build_communication_graph(pts, radio_range=5.0)
        assert g.weight(0, 1) == pytest.approx(2.0)

    def test_isolated_nodes_kept(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        g = build_communication_graph(pts, radio_range=1.0)
        assert g.n_vertices == 2
        assert g.n_edges == 0

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            build_communication_graph(np.zeros((2, 2)), radio_range=0.0)
