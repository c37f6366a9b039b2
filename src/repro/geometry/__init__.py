"""Planar geometry for node layouts, beamforming angles and cluster shapes.

The paper's scenarios are all two-dimensional: primary/secondary users on a
plane, clusters of diameter ``d``, long-haul links of length ``D``, and the
interweave geometry of Figure 5 (angles ``alpha`` and ``beta`` between the
transmit pair, the primary receiver and the secondary receiver).
"""

from repro.geometry.placement import (
    place_on_arc,
    place_on_segment,
    random_in_annulus,
    random_in_disk,
    random_in_rectangle,
)
from repro.geometry.points import (
    angle_at,
    distance,
    distance_matrix,
    midpoint,
    pairwise_distances,
)

__all__ = [
    "distance",
    "distance_matrix",
    "pairwise_distances",
    "midpoint",
    "angle_at",
    "random_in_disk",
    "random_in_annulus",
    "random_in_rectangle",
    "place_on_segment",
    "place_on_arc",
]
