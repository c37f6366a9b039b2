"""Vectorized planar point operations.

Points are plain NumPy arrays of shape ``(2,)`` (a single point) or
``(n, 2)`` (a batch).  Keeping them as raw arrays rather than a Point class
lets every downstream computation (distance matrices, array factors,
clustering) stay fully vectorized, per the HPC guides.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_points",
    "distance",
    "distance_matrix",
    "pairwise_distances",
    "midpoint",
    "angle_at",
]


def as_points(points: np.ndarray) -> np.ndarray:
    """Coerce input to a float array of shape ``(n, 2)``.

    A single ``(2,)`` point becomes ``(1, 2)``.
    """
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {arr.shape}")
    return arr


def distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between points; broadcasts over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.norm(a - b, axis=-1)


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs distances between two point sets.

    Parameters
    ----------
    a, b:
        Arrays of shape ``(m, 2)`` and ``(n, 2)``.

    Returns
    -------
    ndarray of shape ``(m, n)`` with ``out[i, j] = |a_i - b_j|``.
    """
    a = as_points(a)
    b = as_points(b)
    diff = a[:, None, :] - b[None, :, :]
    return np.linalg.norm(diff, axis=-1)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Symmetric ``(n, n)`` distance matrix of one point set."""
    pts = as_points(points)
    return distance_matrix(pts, pts)


def midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Midpoint of the segment ``ab``; broadcasts element-wise."""
    return (np.asarray(a, dtype=float) + np.asarray(b, dtype=float)) / 2.0


def angle_at(vertex: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Interior angle ``∠ p-vertex-q`` in radians, in ``[0, pi]``.

    This is the geometry used for ``alpha = ∠ Pr-St1-St2`` in Algorithm 3:
    the angle at the delayed transmitter between the direction to the primary
    receiver and the direction to its pair partner.
    """
    vertex = np.asarray(vertex, dtype=float)
    u = np.asarray(p, dtype=float) - vertex
    v = np.asarray(q, dtype=float) - vertex
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise ValueError("angle_at is undefined when a point coincides with the vertex")
    cos = np.sum(u * v, axis=-1) / (nu * nv)
    return np.arccos(np.clip(cos, -1.0, 1.0))
