"""The cluster-level network ``G_MIMO`` with its routing backbone.

From Section 2.1: vertices of ``G_MIMO`` are the clusters (virtual MIMO
nodes); an edge ``(A, B)`` exists iff a cooperative MIMO link can be defined
between them — here, iff the largest member-to-member distance is within the
long-haul range ``D_max``.  Head nodes form a spanning tree used as the
routing backbone; clusters and the backbone are reconfigurable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.points import pairwise_distances
from repro.network.cluster import Cluster
from repro.network.clustering import d_cluster
from repro.network.graph import Graph
from repro.network.node import SUNode
from repro.utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive_int,
)

__all__ = ["LinkKind", "CooperativeLink", "CoMIMONet"]


class LinkKind(enum.Enum):
    """Cooperative link classification by antenna counts (Section 2.1)."""

    SISO = "SISO"
    MISO = "MISO"
    SIMO = "SIMO"
    MIMO = "MIMO"

    @classmethod
    def classify(cls, mt: int, mr: int) -> "LinkKind":
        if mt < 1 or mr < 1:
            raise ValueError("mt and mr must be >= 1")
        if mt == 1 and mr == 1:
            return cls.SISO
        if mt > 1 and mr == 1:
            return cls.MISO
        if mt == 1:
            return cls.SIMO
        return cls.MIMO


@dataclass(frozen=True)
class CooperativeLink:
    """A ``D - mt x mr`` cooperative link between two clusters."""

    tx_cluster_id: int
    rx_cluster_id: int
    mt: int
    mr: int
    length_m: float

    def __post_init__(self) -> None:
        check_non_negative_int(self.tx_cluster_id, "tx_cluster_id")
        check_non_negative_int(self.rx_cluster_id, "rx_cluster_id")
        check_positive_int(self.mt, "mt")
        check_positive_int(self.mr, "mr")
        check_non_negative(self.length_m, "length_m")

    @property
    def kind(self) -> LinkKind:
        return LinkKind.classify(self.mt, self.mr)


class CoMIMONet:
    """A cooperative MIMO network over a set of SU nodes.

    Parameters
    ----------
    nodes:
        The SU population.
    cluster_diameter:
        ``d`` — maximum intra-cluster pairwise distance (``d <= r``).
    longhaul_range:
        ``D_max`` — maximum cooperative link length between clusters.
    max_cluster_size:
        Optional cap on nodes per cluster (paper sweeps 1..4 cooperators).

    Building the network performs d-clustering, constructs the cluster
    graph, and grows the routing backbone (a spanning tree over heads).
    :meth:`reconfigure` repeats head election and backbone construction —
    the paper's "the clusters and the routing backbone are reconfigurable".
    """

    def __init__(
        self,
        nodes: Sequence[SUNode],
        cluster_diameter: float,
        longhaul_range: float,
        max_cluster_size: Optional[int] = None,
        backbone: str = "mst",
    ) -> None:
        if not nodes:
            raise ValueError("CoMIMONet needs at least one node")
        if cluster_diameter <= 0.0 or longhaul_range <= 0.0:
            raise ValueError("cluster_diameter and longhaul_range must be positive")
        if backbone not in ("mst", "bfs"):
            raise ValueError("backbone must be 'mst' or 'bfs'")
        if max_cluster_size is not None:
            check_positive_int(max_cluster_size, "max_cluster_size")
        self.nodes: List[SUNode] = list(nodes)
        self.cluster_diameter = float(cluster_diameter)
        self.longhaul_range = float(longhaul_range)
        self.max_cluster_size = max_cluster_size
        self.backbone_kind = backbone

        positions = np.stack([n.position for n in self.nodes])
        assignments = d_cluster(positions, cluster_diameter, max_cluster_size)
        self.clusters: List[Cluster] = [
            Cluster(cid, [self.nodes[i] for i in members])
            for cid, members in enumerate(assignments)
        ]
        self._cluster_by_id: Dict[int, Cluster] = {c.cluster_id: c for c in self.clusters}
        self.cluster_graph = self._build_cluster_graph()
        self.backbone = self._build_backbone()

    # ------------------------------------------------------------------ #
    # Construction helpers                                               #
    # ------------------------------------------------------------------ #

    def _build_cluster_graph(self) -> Graph:
        """Edge ``(A, B)`` weighted :meth:`Cluster.distance_to` iff within
        ``D_max``, inserted in ``(i, j > i)`` cluster order.

        One member distance matrix, reduced to per-cluster-pair block
        maxima: the same floats as the pairwise loop (max is exact), so
        the backbone's tie-breaks do not move.
        """
        graph = Graph()
        for c in self.clusters:
            graph.add_vertex(c.cluster_id)
        if len(self.clusters) < 2:
            return graph
        positions = np.stack([n.position for c in self.clusters for n in c.nodes])
        dist = pairwise_distances(positions)
        starts = np.cumsum([0] + [c.size for c in self.clusters[:-1]])
        block_max = np.maximum.reduceat(
            np.maximum.reduceat(dist, starts, axis=0), starts, axis=1
        )
        ii, jj = np.nonzero(np.triu(block_max <= self.longhaul_range, k=1))
        for i, j in zip(ii.tolist(), jj.tolist()):
            graph.add_edge(
                self.clusters[i].cluster_id,
                self.clusters[j].cluster_id,
                float(block_max[i, j]),
            )
        return graph

    def _build_backbone(self) -> Graph:
        """Spanning tree over the cluster graph (per component).

        ``mst`` minimizes total link length (energy-motivated); ``bfs``
        minimizes hop count from the densest cluster.
        """
        backbone = Graph()
        for c in self.clusters:
            backbone.add_vertex(c.cluster_id)
        for component in self.cluster_graph.connected_components():
            if len(component) == 1:
                continue
            sub = Graph()
            for v in component:
                sub.add_vertex(v)
            for u, v, w in self.cluster_graph.edges():
                if u in component and v in component:
                    sub.add_edge(u, v, w)
            if self.backbone_kind == "mst":
                tree = sub.minimum_spanning_tree()
            else:
                root = max(component, key=lambda cid: self._cluster_by_id[cid].size)
                tree = sub.bfs_tree(root)
            for u, v, w in tree.edges():
                backbone.add_edge(u, v, w)
        return backbone

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster(self, cluster_id: int) -> Cluster:
        """The cluster with the given id (KeyError if dropped/unknown)."""
        return self._cluster_by_id[cluster_id]

    def cluster_of_node(self, node_id: int) -> Cluster:
        """The cluster containing the given elementary node."""
        for c in self.clusters:
            if any(n.node_id == node_id for n in c.nodes):
                return c
        raise KeyError(f"node {node_id} not in any cluster")

    def link_between(self, tx_cluster_id: int, rx_cluster_id: int) -> CooperativeLink:
        """The cooperative link descriptor for an existing cluster-graph edge."""
        if not self.cluster_graph.has_edge(tx_cluster_id, rx_cluster_id):
            raise KeyError(
                f"no cooperative link between clusters "
                f"{tx_cluster_id} and {rx_cluster_id}"
            )
        tx = self._cluster_by_id[tx_cluster_id]
        rx = self._cluster_by_id[rx_cluster_id]
        return CooperativeLink(
            tx_cluster_id=tx_cluster_id,
            rx_cluster_id=rx_cluster_id,
            mt=len(tx.alive_nodes),
            mr=len(rx.alive_nodes),
            length_m=self.cluster_graph.weight(tx_cluster_id, rx_cluster_id),
        )

    def route(self, source_cluster_id: int, dest_cluster_id: int) -> List[CooperativeLink]:
        """Backbone route between two clusters as a list of hop links.

        Raises ``ValueError`` when the clusters are in different components.
        """
        path = self.backbone.shortest_weighted_path(source_cluster_id, dest_cluster_id)
        if path is None:
            raise ValueError(
                f"clusters {source_cluster_id} and {dest_cluster_id} are disconnected"
            )
        return [self.link_between(u, v) for u, v in zip(path[:-1], path[1:])]

    # ------------------------------------------------------------------ #
    # Reconfiguration                                                    #
    # ------------------------------------------------------------------ #

    def reconfigure(self) -> None:
        """Re-elect heads by battery level and rebuild the backbone.

        Dead clusters (all members exhausted) are dropped from the cluster
        graph so routes steer around them.
        """
        survivors = []
        for c in self.clusters:
            if c.is_alive:
                c.elect_head()
                survivors.append(c)
        self.clusters = survivors
        self._cluster_by_id = {c.cluster_id: c for c in self.clusters}
        self.cluster_graph = self._build_cluster_graph()
        self.backbone = self._build_backbone()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CoMIMONet(nodes={len(self.nodes)}, clusters={self.n_clusters}, "
            f"d={self.cluster_diameter}, D_max={self.longhaul_range})"
        )
