"""Clusters as virtual MIMO nodes.

Each cluster elects a *head* node (Section 2.1): the head retains member
state (IDs, battery levels), controls and synchronizes cooperative
transmission/reception, and participates in the routing backbone.  Election
picks the member with the most remaining battery — the criterion implied by
the paper's reconfigurability discussion (heads drain faster because they
coordinate, so rotation by battery equalizes lifetime).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.geometry.points import pairwise_distances
from repro.network.node import SUNode
from repro.utils.validation import check_non_negative_int

__all__ = ["Cluster"]


class Cluster:
    """A d-cluster of SU nodes acting as one virtual MIMO node.

    Parameters
    ----------
    cluster_id:
        Identifier, unique within a CoMIMONet.
    nodes:
        Member nodes (at least one).  The initial head is elected on
        construction.
    """

    def __init__(self, cluster_id: int, nodes: Sequence[SUNode]) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in cluster")
        self.cluster_id = check_non_negative_int(cluster_id, "cluster_id")
        self.nodes: List[SUNode] = list(nodes)
        self._head_index = 0
        self.elect_head()

    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of elementary nodes (the cluster's antenna count)."""
        return len(self.nodes)

    @property
    def head(self) -> SUNode:
        """The current head node."""
        return self.nodes[self._head_index]

    @property
    def members(self) -> List[SUNode]:
        """All non-head elementary nodes."""
        return [n for i, n in enumerate(self.nodes) if i != self._head_index]

    @property
    def alive_nodes(self) -> List[SUNode]:
        """Members whose batteries are not exhausted."""
        return [n for n in self.nodes if n.alive]

    @property
    def is_alive(self) -> bool:
        """A cluster functions while at least one member is alive."""
        return any(n.alive for n in self.nodes)

    def positions(self) -> np.ndarray:
        """``(size, 2)`` stacked member coordinates."""
        return np.stack([n.position for n in self.nodes])

    @property
    def diameter(self) -> float:
        """Largest intra-cluster pairwise distance (0 for singletons)."""
        if self.size < 2:
            return 0.0
        return float(pairwise_distances(self.positions()).max())

    # ------------------------------------------------------------------ #

    def elect_head(self) -> SUNode:
        """(Re-)elect the head: alive node with the most remaining energy.

        Ties break on the lower node id for determinism.  Raises
        ``RuntimeError`` when no member is alive (the CoMIMONet should then
        reconfigure around the dead cluster).
        """
        alive = [(i, n) for i, n in enumerate(self.nodes) if n.alive]
        if not alive:
            raise RuntimeError(f"cluster {self.cluster_id} has no alive nodes")
        self._head_index = max(alive, key=lambda t: (t[1].remaining_j, -t[1].node_id))[0]
        return self.head

    def distance_to(self, other: "Cluster") -> float:
        """Largest member-to-member distance — the paper's cooperative link
        length ``D`` ("the largest distance between a node of A and a node
        of B").  Conservative: the energy model is evaluated at the worst
        pair."""
        diff = self.positions()[:, None, :] - other.positions()[None, :, :]
        return float(np.linalg.norm(diff, axis=-1).max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster(id={self.cluster_id}, size={self.size}, "
            f"head={self.head.node_id}, diameter={self.diameter:.2f} m)"
        )
