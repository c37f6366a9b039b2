"""d-clustering of SU nodes (Section 2.1).

    "A d-clustering of V is a node disjoint division of V, where the
    distance between two SU nodes in a cluster is up to d (d <= r)."

The constraint is a *diameter* bound: every pair inside a cluster must be
within ``d``.  Finding a minimum-cardinality diameter-bounded partition is
NP-hard (it generalizes clique cover), so we use the standard greedy
quality-guaranteed heuristic: scan nodes (nearest-first from a seed) and
place each node into the first existing cluster all of whose members are
within ``d``; open a new cluster otherwise.  An optional ``max_size`` caps
cluster cardinality (the paper sweeps cooperative group sizes 1..4).

:func:`validate_clustering` checks the partition and diameter invariants
and is used both defensively and by the property-based tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.points import as_points, distance, pairwise_distances

__all__ = ["d_cluster", "validate_clustering", "cluster_diameter"]


def d_cluster(
    positions: np.ndarray,
    d: float,
    max_size: Optional[int] = None,
) -> List[List[int]]:
    """Partition nodes into clusters of diameter at most ``d``.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates.
    d:
        Maximum intra-cluster pairwise distance.
    max_size:
        Optional cap on nodes per cluster.

    Returns
    -------
    List of clusters, each a list of node indices; clusters are ordered by
    creation and indices within a cluster are ascending.  The result is a
    partition of ``range(n)``.
    """
    pts = as_points(positions)
    if d <= 0.0:
        raise ValueError("d must be positive")
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1 when given")
    n = pts.shape[0]
    if n == 0:
        return []

    # Deterministic scan order: start from the lexicographically smallest
    # point and repeatedly take the unvisited node closest to the previous
    # one (lowest index on ties).  Greedy locality makes the greedy
    # assignment fill clusters compactly instead of fragmenting them.
    # Each node is placed as it is scanned, from its one distance row
    # (``pairwise_distances``' formula), so memory stays O(n).
    clusters: List[List[int]] = []
    cluster_of = np.full(n, -1, dtype=np.intp)  # -1 until scanned
    current = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    for scanned in range(1, n + 1):
        row = distance(pts, pts[current])
        # Only a cluster owning a node within d can take this one; test
        # those in creation order, as a scan of every cluster would.
        for cid in np.unique(cluster_of[row <= d]).tolist():
            if cid < 0:
                continue
            cluster = clusters[cid]
            if max_size is not None and len(cluster) >= max_size:
                continue
            if all(row[member] <= d for member in cluster):
                cluster.append(current)
                cluster_of[current] = cid
                break
        else:
            cluster_of[current] = len(clusters)
            clusters.append([current])
        if scanned == n:
            break
        remaining = np.flatnonzero(cluster_of < 0)
        current = int(remaining[np.argmin(row[remaining])])
    for cluster in clusters:
        cluster.sort()
    return clusters


def cluster_diameter(positions: np.ndarray, members: Sequence[int]) -> float:
    """Largest pairwise distance among the given member indices (0 if < 2)."""
    if len(members) < 2:
        return 0.0
    pts = as_points(positions)[list(members)]
    return float(pairwise_distances(pts).max())


def validate_clustering(
    positions: np.ndarray,
    clusters: Sequence[Sequence[int]],
    d: float,
    max_size: Optional[int] = None,
) -> None:
    """Assert the d-clustering invariants; raises ``ValueError`` on violation.

    Checks: (1) the clusters partition ``range(n)`` exactly; (2) every
    cluster's diameter is at most ``d``; (3) the optional size cap holds.
    """
    pts = as_points(positions)
    n = pts.shape[0]
    flat = [idx for cluster in clusters for idx in cluster]
    if sorted(flat) != list(range(n)):
        raise ValueError("clusters do not form a partition of the node set")
    for cluster in clusters:
        if max_size is not None and len(cluster) > max_size:
            raise ValueError(f"cluster size {len(cluster)} exceeds cap {max_size}")
        diameter = cluster_diameter(pts, cluster)
        if diameter > d * (1.0 + 1e-12):
            raise ValueError(f"cluster diameter {diameter} exceeds d={d}")
