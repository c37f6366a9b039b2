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

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.points import as_points, pairwise_distances

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
        ``(n, 2)`` finite node coordinates.
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
    if not np.isfinite(pts).all():
        raise ValueError("positions must be finite")

    # Deterministic scan order: start from the lexicographically smallest
    # point and repeatedly take the unscanned node closest to the previous
    # one (lowest index on ties).  Greedy locality makes the greedy
    # assignment fill clusters compactly instead of fragmenting them.
    # Each node is placed as it is scanned: into the first cluster, in
    # creation order, with room and every member within d.
    #
    # Distances are sqrt(dx*dx + dy*dy) in plain floats, the float
    # ``pairwise_distances`` gives (``math.hypot`` rounds differently).
    # Two grids keep each step local.  Their cells are powers of two, so
    # a node's cell floor(x / cell) is exact.  A cluster can only take a
    # node within d of its first member, which lies in the 3 x 3 cells
    # around the node on a grid of cells larger than d.  The nearest
    # unscanned node is searched ring by ring on a grid of about one node
    # per cell: a node r + 1 or more rings out is at least r cells away,
    # so the search stops once its best distance is strictly below that.
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    reach = float(np.abs(pts).max())
    spacing = float(np.ptp(pts, axis=0).max()) / math.sqrt(n)
    step = _cell_size(spacing, reach)
    unscanned: Dict[Tuple[int, int], List[int]] = {}
    for j, (x, y) in enumerate(zip(xs, ys)):
        unscanned.setdefault((math.floor(x / step), math.floor(y / step)), []).append(j)
    gx0, gy0 = min(k[0] for k in unscanned), min(k[1] for k in unscanned)
    gx1, gy1 = max(k[0] for k in unscanned), max(k[1] for k in unscanned)
    cell = _cell_size(d, reach)
    open_at: Dict[Tuple[int, int], List[int]] = {}  # open clusters by first member's cell
    home_cell: List[Tuple[int, int]] = []
    clusters: List[List[int]] = []
    sqrt = math.sqrt
    current = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    for scanned in range(1, n + 1):
        x, y = xs[current], ys[current]
        cx, cy = math.floor(x / cell), math.floor(y / cell)
        candidates: List[int] = []
        for i in (cx - 1, cx, cx + 1):
            for j in (cy - 1, cy, cy + 1):
                candidates.extend(open_at.get((i, j), ()))
        home = -1
        for cid in sorted(candidates):
            for m in clusters[cid]:
                dx = xs[m] - x
                dy = ys[m] - y
                if not sqrt(dx * dx + dy * dy) <= d:
                    break
            else:
                home = cid
                break
        if home < 0:
            home = len(clusters)
            clusters.append([current])
            home_cell.append((cx, cy))
            if max_size is None or max_size > 1:
                open_at.setdefault((cx, cy), []).append(home)
        else:
            clusters[home].append(current)
            if max_size is not None and len(clusters[home]) >= max_size:
                full = open_at[home_cell[home]]
                full.remove(home)
                if not full:
                    del open_at[home_cell[home]]

        kx, ky = math.floor(x / step), math.floor(y / step)
        bucket = unscanned[(kx, ky)]
        bucket.remove(current)
        if not bucket:
            del unscanned[(kx, ky)]
        if scanned == n:
            break
        best, best_j, r = math.inf, -1, 0
        r_max = max(kx - gx0, gx1 - kx, ky - gy0, gy1 - ky)
        while True:
            for key in _ring(kx, ky, r, gx0, gy0, gx1, gy1):
                for j in unscanned.get(key, ()):
                    dx = xs[j] - x
                    dy = ys[j] - y
                    dist = sqrt(dx * dx + dy * dy)
                    if dist < best or (dist == best and j < best_j) or best_j < 0:
                        best, best_j = dist, j
            if best < r * step or r >= r_max:
                break
            r += 1
        current = best_j
    for members in clusters:
        members.sort()
    return clusters


def _cell_size(length: float, reach: float) -> float:
    """A power-of-two grid cell strictly larger than ``length``.

    Never below ``2**-500``, so an in-cell offset's square is a normal
    float and ``sqrt(dx*dx + dy*dy) >= |dx|`` holds exactly; ``inf`` (one
    cell for every point: ``floor(x / inf) == 0``) when ``length`` or the
    largest coordinate magnitude ``reach`` leaves no finite cell count.
    """
    if not length < 2.0**1000:
        return math.inf
    size = math.ldexp(1.0, max(math.frexp(length)[1], -500))
    return size if reach < size * 2.0**1000 else math.inf


def _ring(
    kx: int, ky: int, r: int, gx0: int, gy0: int, gx1: int, gy1: int
) -> List[Tuple[int, int]]:
    """The cells ``r`` rings around ``(kx, ky)`` (Chebyshev distance r),
    clipped to the grid's occupied box ``[gx0, gx1] x [gy0, gy1]``."""
    if r == 0:
        return [(kx, ky)]
    xlo, xhi = max(kx - r, gx0), min(kx + r, gx1)
    ylo, yhi = max(ky - r + 1, gy0), min(ky + r - 1, gy1)
    cells: List[Tuple[int, int]] = []
    for y in (ky - r, ky + r):
        if gy0 <= y <= gy1:
            cells.extend((x, y) for x in range(xlo, xhi + 1))
    for x in (kx - r, kx + r):
        if gx0 <= x <= gx1:
            cells.extend((x, y) for y in range(ylo, yhi + 1))
    return cells


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
