"""CoMIMONet tests: construction, links, routing, reconfiguration."""

import heapq
import tracemalloc

import numpy as np
import pytest

from repro.network.comimonet import CoMIMONet, LinkKind
from repro.network.graph import Graph
from repro.network.node import SUNode


def _line_network(n_clusters=4, nodes_per_cluster=3, spacing=100.0, battery=50.0, seed=0):
    rng = np.random.default_rng(seed)
    nodes = []
    nid = 0
    for c in range(n_clusters):
        for _ in range(nodes_per_cluster):
            jitter = rng.uniform(-0.8, 0.8, 2)
            nodes.append(
                SUNode(nid, (c * spacing + jitter[0], jitter[1]), battery_j=battery)
            )
            nid += 1
    return CoMIMONet(nodes, cluster_diameter=2.5, longhaul_range=spacing * 1.2)


class TestLinkKind:
    @pytest.mark.parametrize(
        "mt,mr,kind",
        [(1, 1, LinkKind.SISO), (3, 1, LinkKind.MISO), (1, 2, LinkKind.SIMO), (2, 2, LinkKind.MIMO)],
    )
    def test_classification(self, mt, mr, kind):
        assert LinkKind.classify(mt, mr) is kind

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            LinkKind.classify(0, 1)


class TestConstruction:
    def test_clusters_formed(self):
        net = _line_network()
        assert net.n_clusters == 4
        assert all(c.size == 3 for c in net.clusters)

    def test_cluster_graph_is_chain(self):
        net = _line_network()
        degrees = sorted(net.cluster_graph.degree(c.cluster_id) for c in net.clusters)
        assert degrees == [1, 1, 2, 2]

    def test_backbone_spans(self):
        net = _line_network()
        assert net.backbone.is_connected()
        assert net.backbone.n_edges == net.n_clusters - 1

    def test_max_cluster_size_respected(self):
        rng = np.random.default_rng(1)
        nodes = [
            SUNode(i, tuple(rng.uniform(0, 1.5, 2)), battery_j=10.0) for i in range(9)
        ]
        net = CoMIMONet(nodes, cluster_diameter=3.0, longhaul_range=10.0, max_cluster_size=4)
        assert all(c.size <= 4 for c in net.clusters)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoMIMONet([], 1.0, 10.0)

    def test_rejects_bad_backbone_kind(self):
        with pytest.raises(ValueError):
            CoMIMONet([SUNode(0, (0, 0))], 1.0, 10.0, backbone="star")


class TestLinks:
    def test_link_descriptor(self):
        net = _line_network()
        link = net.link_between(0, 1)
        assert link.mt == 3 and link.mr == 3
        assert link.kind is LinkKind.MIMO
        assert 95.0 < link.length_m < 110.0

    def test_no_link_raises(self):
        net = _line_network()
        with pytest.raises(KeyError):
            net.link_between(0, 3)  # 300 m apart, out of range

    def test_dead_members_shrink_link(self):
        net = _line_network(battery=5.0)
        tx = net.cluster(0)
        tx.nodes[0].consume(5.0)
        link = net.link_between(0, 1)
        assert link.mt == 2


class TestRouting:
    def test_route_end_to_end(self):
        net = _line_network()
        route = net.route(0, 3)
        assert [l.tx_cluster_id for l in route] == [0, 1, 2]
        assert [l.rx_cluster_id for l in route] == [1, 2, 3]

    def test_route_to_self_is_empty(self):
        net = _line_network()
        assert net.route(2, 2) == []

    def test_disconnected_raises(self):
        nodes = [SUNode(0, (0.0, 0.0)), SUNode(1, (1000.0, 0.0))]
        net = CoMIMONet(nodes, cluster_diameter=1.0, longhaul_range=10.0)
        with pytest.raises(ValueError):
            net.route(0, 1)


class TestReconfigure:
    def test_heads_rotate_by_battery(self):
        net = _line_network(battery=50.0)
        cluster = net.cluster(0)
        head = cluster.head
        head.consume(45.0)  # drain far below peers
        net.reconfigure()
        assert net.cluster(0).head is not head

    def test_dead_cluster_dropped(self):
        net = _line_network(battery=5.0)
        for node in net.cluster(3).nodes:
            node.consume(5.0)
        net.reconfigure()
        assert all(c.cluster_id != 3 for c in net.clusters)
        with pytest.raises(ValueError):
            net.route(0, 3)

    def test_bfs_backbone_variant(self):
        rng = np.random.default_rng(2)
        nodes = [
            SUNode(i, tuple(rng.uniform(0, 120, 2)), battery_j=10.0) for i in range(12)
        ]
        net = CoMIMONet(nodes, cluster_diameter=20.0, longhaul_range=150.0, backbone="bfs")
        # spanning forest: every component of the cluster graph is spanned
        for comp in net.cluster_graph.connected_components():
            sub_edges = [
                (u, v)
                for u, v, _ in net.backbone.edges()
                if u in comp and v in comp
            ]
            assert len(sub_edges) == len(comp) - 1


def _reference_cluster_edges(net):
    """The pairwise ``Cluster.distance_to`` loop the cluster graph replaces."""
    ref = Graph()
    for c in net.clusters:
        ref.add_vertex(c.cluster_id)
    for i, a in enumerate(net.clusters):
        for b in net.clusters[i + 1 :]:
            length = a.distance_to(b)
            if length <= net.longhaul_range:
                ref.add_edge(a.cluster_id, b.cluster_id, length)
    return ref


def _population(kind, n=60):
    if kind == "lattice":
        # 15 m integer lattice: many equal distances, so Prim's tie-breaks bite.
        side = int(np.ceil(np.sqrt(n)))
        coords = [(15.0 * (i % side), 15.0 * (i // side)) for i in range(n)]
    else:
        rng = np.random.default_rng(int(kind.split("-")[1]))
        coords = [tuple(rng.uniform(0.0, 300.0, 2)) for _ in range(n)]
    return [SUNode(i, xy, battery_j=5.0) for i, xy in enumerate(coords)]


class TestClusterGraphMatchesPairwiseLoop:
    """The block-maxima cluster graph against the ``Cluster.distance_to``
    reference: same edge order, endpoints and float weights (``==``)."""

    @staticmethod
    def _assert_matches_reference(net):
        ref = _reference_cluster_edges(net)
        assert net.cluster_graph.vertices == ref.vertices
        assert net.cluster_graph.edges() == ref.edges()

    @pytest.mark.parametrize("max_cluster_size", [1, 2, 3, 4])
    @pytest.mark.parametrize("population", ["seed-0", "seed-7", "lattice"])
    @pytest.mark.parametrize("backbone", ["mst", "bfs"])
    def test_seeded_populations(self, max_cluster_size, population, backbone):
        net = CoMIMONet(
            _population(population),
            cluster_diameter=40.0,
            longhaul_range=120.0,
            max_cluster_size=max_cluster_size,
            backbone=backbone,
        )
        edges = net.cluster_graph.edges()
        assert 0 < len(edges) < net.n_clusters * (net.n_clusters - 1) // 2
        if population == "lattice":
            assert len({w for _, _, w in edges}) < len(edges)
        self._assert_matches_reference(net)

    def test_after_reconfigure_drops_dead_cluster(self):
        net = CoMIMONet(
            _population("seed-3"),
            cluster_diameter=40.0,
            longhaul_range=120.0,
            max_cluster_size=3,
        )
        victim = net.clusters[len(net.clusters) // 2]
        for node in victim.nodes:
            node.consume(node.remaining_j)
        net.reconfigure()
        assert victim.cluster_id not in net.cluster_graph.vertices
        self._assert_matches_reference(net)

    def test_single_cluster_has_no_edges(self):
        net = CoMIMONet([SUNode(0, (0.0, 0.0)), SUNode(1, (1.0, 0.0))], 5.0, 10.0)
        assert net.n_clusters == 1
        assert net.cluster_graph.vertices == [0]
        assert net.cluster_graph.edges() == []


def _reference_prim(graph):
    """Prim over a whole connected graph from its first vertex, stopping
    once every vertex is in the tree (the copied subgraph's MST)."""
    tree = Graph()
    start = graph.vertices[0]
    tree.add_vertex(start)
    visited, counter, heap = {start}, 0, []
    for u in graph.neighbors(start):
        counter += 1
        heapq.heappush(heap, (graph.weight(start, u), counter, start, u))
    while heap and len(visited) < graph.n_vertices:
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


def _reference_backbone(net):
    """The copy-based backbone the copy-free one replaced: every component
    copied edge by edge into a graph of its own and spanned there."""
    backbone = Graph()
    for c in net.clusters:
        backbone.add_vertex(c.cluster_id)
    for component in net.cluster_graph.connected_components():
        if len(component) == 1:
            continue
        sub = Graph()
        for v in component:
            sub.add_vertex(v)
        for u, v, w in net.cluster_graph.edges():
            if u in component and v in component:
                sub.add_edge(u, v, w)
        if net.backbone_kind == "mst":
            tree = _reference_prim(sub)
        else:
            root = max(component, key=lambda cid: net.cluster(cid).size)
            tree = sub.bfs_tree(root)
        for u, v, w in tree.edges():
            backbone.add_edge(u, v, w)
    return backbone


def _islands(kind):
    """Six 15 m lattices (tie-heavy) or six random blobs, 400 m apart."""
    nodes = []
    for island in range(6):
        if kind == "lattice":
            coords = [(15.0 * (i % 6), 15.0 * (i // 6)) for i in range(30)]
        else:
            rng = np.random.default_rng(island)
            coords = [tuple(rng.uniform(0.0, 120.0, 2)) for _ in range(30)]
        for x, y in coords:
            nodes.append(SUNode(len(nodes), (x + 400.0 * island, y), battery_j=5.0))
    return nodes


class TestBackboneMatchesCopiedSubgraphs:
    """The backbone grown on the cluster graph itself against the one grown
    on per-component copies: the same ``edges()`` list, in order."""

    @pytest.mark.parametrize("max_cluster_size", [1, 4])
    @pytest.mark.parametrize("kind", ["lattice", "random"])
    @pytest.mark.parametrize("backbone", ["mst", "bfs"])
    def test_multi_component(self, backbone, kind, max_cluster_size):
        net = CoMIMONet(
            _islands(kind),
            cluster_diameter=20.0,
            longhaul_range=50.0,
            max_cluster_size=max_cluster_size,
            backbone=backbone,
        )
        components = [c for c in net.cluster_graph.connected_components() if len(c) > 1]
        assert len(components) == 6
        # Some component's first vertex is not its smallest, so a root
        # other than next(iter(component)) would show.
        assert any(next(iter(c)) != min(c) for c in components)
        assert net.backbone.edges() == _reference_backbone(net).edges()

    @pytest.mark.parametrize("backbone", ["mst", "bfs"])
    def test_after_reconfigure(self, backbone):
        net = CoMIMONet(
            _islands("lattice"),
            cluster_diameter=20.0,
            longhaul_range=50.0,
            max_cluster_size=2,
            backbone=backbone,
        )
        for victim in net.clusters[5::9]:
            for node in victim.nodes:
                node.consume(node.remaining_j)
        net.reconfigure()
        assert net.backbone.edges() == _reference_backbone(net).edges()


def test_construction_holds_no_n_by_n_matrix():
    """3,000 nodes: one n x n float64 matrix alone would be 72 MB."""
    rng = np.random.default_rng(7)
    xy = rng.uniform(0.0, 2000.0, size=(3000, 2))
    nodes = [SUNode(i, (x, y)) for i, (x, y) in enumerate(xy)]
    tracemalloc.start()
    try:
        net = CoMIMONet(nodes, cluster_diameter=60.0, longhaul_range=200.0, max_cluster_size=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.cluster_graph.n_edges > 0
    assert peak < 40e6
