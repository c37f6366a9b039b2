"""A small undirected graph with the algorithms CoMIMONet needs.

Implemented from scratch (adjacency dictionaries + binary heap) rather than
wrapping networkx, so the library has no graph dependency; the test suite
cross-validates every algorithm against networkx where it is available.

Supported operations: edge/vertex insertion, neighbors, connected
components, unweighted BFS shortest paths, Dijkstra, Prim minimum spanning
tree, and BFS spanning trees rooted at a chosen vertex (the routing
backbone construction of Section 2.1).
"""

from __future__ import annotations

import heapq
from typing import Collection, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = ["Graph", "build_communication_graph"]


class Graph:
    """Undirected graph with optional edge weights."""

    def __init__(self) -> None:
        self._adj: Dict[Hashable, Dict[Hashable, float]] = {}

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #

    def add_vertex(self, v: Hashable) -> None:
        """Insert an isolated vertex (no-op if present)."""
        self._adj.setdefault(v, {})

    def add_edge(self, u: Hashable, v: Hashable, weight: float = 1.0) -> None:
        """Insert (or re-weight) an undirected edge, creating endpoints."""
        if u == v:
            raise ValueError("self-loops are not allowed")
        if weight < 0.0:
            raise ValueError("edge weights must be non-negative")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)

    def add_neighbors(
        self, u: Hashable, neighbors: Sequence[Hashable], weights: Sequence[float]
    ) -> None:
        """Insert the edges ``(u, neighbors[k], weights[k])`` in one call.

        The bulk form of :meth:`add_edge` for trusted input, without its
        per-edge checks: every endpoint must already be a vertex, no
        neighbor may be ``u``, and each weight must be a non-negative
        float.  Each new entry goes at the end of its adjacency dict, as
        with :meth:`add_edge`.
        """
        adj = self._adj
        nbrs = adj[u]
        for v, w in zip(neighbors, weights):
            nbrs[v] = w
            adj[v][u] = w

    def remove_vertex(self, v: Hashable) -> None:
        """Delete a vertex and every incident edge."""
        if v not in self._adj:
            raise KeyError(v)
        for u in list(self._adj[v]):
            del self._adj[u][v]
        del self._adj[v]

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    @property
    def vertices(self) -> List[Hashable]:
        return list(self._adj)

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def edges(self) -> List[Tuple[Hashable, Hashable, float]]:
        """All edges as ``(u, v, weight)`` triples, each reported once."""
        seen = set()
        out = []
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    out.append((u, v, w))
        return out

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """True iff the undirected edge exists."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Hashable) -> List[Hashable]:
        """Vertices adjacent to ``v``."""
        return list(self._adj[v])

    def degree(self, v: Hashable) -> int:
        """Number of edges incident to ``v``."""
        return len(self._adj[v])

    def weight(self, u: Hashable, v: Hashable) -> float:
        """Weight of an existing edge (KeyError otherwise)."""
        return self._adj[u][v]

    # ------------------------------------------------------------------ #
    # Algorithms                                                         #
    # ------------------------------------------------------------------ #

    def connected_components(self) -> List[Set[Hashable]]:
        """Connected components via iterative DFS."""
        seen: Set[Hashable] = set()
        components = []
        for start in self._adj:
            if start in seen:
                continue
            stack = [start]
            comp: Set[Hashable] = set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(u for u in self._adj[v] if u not in comp)
            seen |= comp
            components.append(comp)
        return components

    def is_connected(self) -> bool:
        """True for the empty graph and any single-component graph."""
        if not self._adj:
            return True
        return len(self.connected_components()) == 1

    def bfs_shortest_path(
        self, source: Hashable, target: Hashable
    ) -> Optional[List[Hashable]]:
        """Fewest-hops path, or None if disconnected."""
        if source not in self._adj or target not in self._adj:
            raise KeyError("source or target not in graph")
        if source == target:
            return [source]
        parent: Dict[Hashable, Hashable] = {source: source}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self._adj[v]:
                    if u not in parent:
                        parent[u] = v
                        if u == target:
                            path = [u]
                            while path[-1] != source:
                                path.append(parent[path[-1]])
                            return path[::-1]
                        nxt.append(u)
            frontier = nxt
        return None

    def dijkstra(
        self, source: Hashable
    ) -> Tuple[Dict[Hashable, float], Dict[Hashable, Hashable]]:
        """Weighted shortest-path distances and parent pointers from source."""
        if source not in self._adj:
            raise KeyError("source not in graph")
        dist: Dict[Hashable, float] = {source: 0.0}
        parent: Dict[Hashable, Hashable] = {source: source}
        done: Set[Hashable] = set()
        counter = 0  # tie-breaker so heterogeneous vertices never compare
        heap: List[Tuple[float, int, Hashable]] = [(0.0, counter, source)]
        while heap:
            d, _, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for u, w in self._adj[v].items():
                nd = d + w
                if u not in dist or nd < dist[u]:
                    dist[u] = nd
                    parent[u] = v
                    counter += 1
                    heapq.heappush(heap, (nd, counter, u))
        return dist, parent

    def shortest_weighted_path(
        self, source: Hashable, target: Hashable
    ) -> Optional[List[Hashable]]:
        """Minimum-weight path via Dijkstra, or None if disconnected."""
        dist, parent = self.dijkstra(source)
        if target not in dist:
            return None
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        return path[::-1]

    def minimum_spanning_tree(self) -> "Graph":
        """Prim's MST (of the whole graph; raises if disconnected)."""
        if not self.is_connected():
            raise ValueError("minimum spanning tree requires a connected graph")
        if not self._adj:
            return Graph()
        return self.prim_tree(self.vertices)

    def prim_tree(self, component: Collection[Hashable]) -> "Graph":
        """Prim's minimum spanning tree of one connected component.

        The tree grows from ``next(iter(component))`` and stops once it
        spans ``len(component)`` vertices.  Equal weights break ties in
        the order edges are offered (root first, then each new vertex's
        adjacency order), so the tree depends on that root and on those
        orders, not on other components.

        Prim with a heap that takes an offer to a vertex outside the tree
        only when it is strictly lighter than that vertex's best offer so
        far.  The offers it drops are ones a lazy Prim would push and never
        use: each is no lighter than an earlier offer to the same vertex,
        which sorts first on ``(weight, push order)``.  A superseded offer
        is strictly heavier than the one that replaced it, so a vertex's
        first pop is its best offer, as in the lazy heap, and the two add
        the same edges in the same order.
        """
        root = next(iter(component))
        adj = self._adj
        if root not in adj:
            raise KeyError("root not in graph")
        tree = Graph()
        tree.add_vertex(root)
        # Each vertex's lightest offer so far; -1.0 marks a tree vertex,
        # which no (non-negative) offer beats.
        offered: Dict[Hashable, float] = {root: -1.0}
        heap: List[Tuple[float, int, Hashable, Hashable]] = []
        counter, size, v = 0, 1, root
        while True:
            for x, wx in adj[v].items():
                w0 = offered.get(x)
                if w0 is None or wx < w0:
                    counter += 1
                    offered[x] = wx
                    heapq.heappush(heap, (wx, counter, v, x))
            if size == len(component):
                return tree
            while heap:
                w, _, u, v = heapq.heappop(heap)
                if offered[v] >= 0.0:
                    break
            else:
                return tree
            offered[v] = -1.0
            size += 1
            tree.add_edge(u, v, w)

    def bfs_tree(self, root: Hashable) -> "Graph":
        """BFS spanning tree of root's component (hop-count backbone)."""
        if root not in self._adj:
            raise KeyError("root not in graph")
        tree = Graph()
        tree.add_vertex(root)
        seen = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self._adj[v]:
                    if u not in seen:
                        seen.add(u)
                        tree.add_edge(v, u, self._adj[v][u])
                        nxt.append(u)
            frontier = nxt
        return tree


def build_communication_graph(positions: np.ndarray, radio_range: float) -> Graph:
    """The SU graph ``G = (V, E)``: edge iff nodes are within ``radio_range``.

    Vertices are integer indices into ``positions``.  Isolated nodes are
    kept as vertices with no edges.
    """
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("positions must have shape (n, 2)")
    if radio_range <= 0.0:
        raise ValueError("radio_range must be positive")
    graph = Graph()
    n = pts.shape[0]
    for i in range(n):
        graph.add_vertex(i)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    ii, jj = np.where(np.triu(dist <= radio_range, k=1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        graph.add_edge(i, j, float(dist[i, j]))
    return graph
