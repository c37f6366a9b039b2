"""Node mobility and cluster-maintenance dynamics.

Section 2.1's clusters and backbone are "reconfigurable" because SU nodes
move.  :class:`RandomWaypointMobility` implements the standard random
waypoint model (pick a destination uniformly in the arena, travel at a
uniform-random speed, pause, repeat), and
:func:`simulate_recluster_interval` measures how long a d-clustering stays
valid under motion — the maintenance-rate input a deployment needs when
choosing ``d`` (tighter clusters break sooner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.network.clustering import d_cluster, validate_clustering
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["RandomWaypointMobility", "WaypointState", "simulate_recluster_interval"]


@dataclass
class WaypointState:
    """Mutable per-node walk state for incremental random-waypoint motion.

    Produced by :meth:`RandomWaypointMobility.start` and advanced one
    tick at a time by :meth:`RandomWaypointMobility.step` — the
    streaming counterpart of :meth:`RandomWaypointMobility.walk` for
    callers (the `repro.scenario` runtime) that interleave mobility with
    other events instead of materialising whole trajectories.  Given the
    same RNG stream, ``start`` + repeated ``step`` reproduce ``walk``
    bit-identically.
    """

    positions: np.ndarray
    waypoints: np.ndarray
    speeds: np.ndarray
    pause_left: np.ndarray

    @property
    def n(self) -> int:
        """Number of nodes in the walk."""
        return int(self.positions.shape[0])


@dataclass
class RandomWaypointMobility:
    """Random waypoint motion for ``n`` nodes in a rectangular arena.

    Parameters
    ----------
    arena:
        ``(width, height)`` of the arena [m]; positions stay inside.
    speed_range:
        ``(v_min, v_max)`` [m/s], drawn per leg.
    pause_s:
        Dwell time at each waypoint.
    """

    arena: Tuple[float, float] = (200.0, 200.0)
    speed_range: Tuple[float, float] = (0.5, 2.0)
    pause_s: float = 0.0

    def __post_init__(self) -> None:
        if min(self.arena) <= 0.0:
            raise ValueError("arena dimensions must be positive")
        v_min, v_max = self.speed_range
        if not (0.0 < v_min <= v_max):
            raise ValueError("need 0 < v_min <= v_max")
        if self.pause_s < 0.0:
            raise ValueError("pause_s must be non-negative")

    def initial_positions(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Uniform starting positions."""
        check_positive_int(n, "n")
        gen = as_rng(rng)
        return gen.uniform((0.0, 0.0), self.arena, size=(n, 2))

    def start(self, positions: np.ndarray, rng: RngLike = None) -> WaypointState:
        """Begin an incremental walk from ``positions``.

        Draws the first waypoint and speed for every node (the same
        draws, in the same order, as the head of :meth:`walk`).
        """
        gen = as_rng(rng)
        pos = np.array(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must have shape (n, 2)")
        n = pos.shape[0]
        return WaypointState(
            positions=pos,
            waypoints=gen.uniform((0.0, 0.0), self.arena, size=(n, 2)),
            speeds=gen.uniform(*self.speed_range, size=n),
            pause_left=np.zeros(n),
        )

    def step(self, state: WaypointState, step_s: float, rng: RngLike = None) -> np.ndarray:
        """Advance an incremental walk by one tick of ``step_s`` seconds.

        Mutates ``state`` in place and returns ``state.positions``.
        Waypoint arrivals re-draw a destination and speed from ``rng`` in
        node order, exactly as :meth:`walk` does within a step.

        Every moving node's first leg is one array pass; only the nodes
        that reach their waypoint within the tick run the per-node loop,
        in ascending order, so the draws keep their order.  Each leg
        length is ``sqrt`` of a ``matmul`` of the row with itself, which
        hands the row to the same ``dot`` routine the 1-D
        ``np.linalg.norm`` uses, so it is that norm's float bit for bit
        (``einsum`` and ``norm(..., axis=-1)`` round differently).
        """
        check_positive(step_s, "step_s")
        gen = as_rng(rng)
        pos = state.positions
        waypoints = state.waypoints
        speeds = state.speeds
        moving = np.flatnonzero(state.pause_left < step_s)
        state.pause_left = np.maximum(state.pause_left - step_s, 0.0)
        if step_s <= 1e-12 or not moving.size:
            return pos  # all paused, or a tick under the walk's 1e-12 s floor
        diff = waypoints[moving] - pos[moving]
        dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
        travel = speeds[moving] * step_s
        short = travel < dist
        ratio = travel[short] / dist[short]
        pos[moving[short]] += diff[short] * ratio[:, None]
        self._arrive(state, moving[~short].tolist(), step_s, gen)
        return pos

    def _arrive(
        self, state: WaypointState, nodes: List[int], step_s: float, gen: np.random.Generator
    ) -> None:
        """The per-node walk of one tick, for nodes that reach a waypoint."""
        pos = state.positions
        waypoints = state.waypoints
        speeds = state.speeds
        pause_left = state.pause_left
        for i in nodes:
            budget = step_s
            while budget > 1e-12:
                to_target = waypoints[i] - pos[i]
                dist = float(np.linalg.norm(to_target))
                travel = speeds[i] * budget
                if travel < dist:
                    pos[i] += to_target * (travel / dist)
                    break
                # arrive, pause, re-draw
                pos[i] = waypoints[i]
                budget -= dist / speeds[i] if speeds[i] > 0 else budget
                waypoints[i] = gen.uniform((0.0, 0.0), self.arena)
                speeds[i] = gen.uniform(*self.speed_range)
                if self.pause_s > 0.0:
                    pause_left[i] = self.pause_s
                    break

    def admit(self, state: WaypointState, rng: RngLike = None) -> int:
        """Add a newly joined node to an incremental walk.

        Draws its starting position, first waypoint and speed; returns
        the new node's row index in ``state.positions``.
        """
        gen = as_rng(rng)
        position = gen.uniform((0.0, 0.0), self.arena)
        waypoint = gen.uniform((0.0, 0.0), self.arena)
        speed = gen.uniform(*self.speed_range)
        state.positions = np.vstack([state.positions, position[None, :]])
        state.waypoints = np.vstack([state.waypoints, waypoint[None, :]])
        state.speeds = np.append(state.speeds, speed)
        state.pause_left = np.append(state.pause_left, 0.0)
        return state.n - 1

    def walk(
        self,
        positions: np.ndarray,
        duration_s: float,
        step_s: float,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Trajectories sampled every ``step_s`` for ``duration_s``.

        Returns an array of shape ``(n_steps + 1, n, 2)`` including the
        initial positions.  Implemented as :meth:`start` + ``n_steps``
        :meth:`step` calls, so batch and incremental walks share one
        RNG draw order.
        """
        check_positive(duration_s, "duration_s")
        check_positive(step_s, "step_s")
        gen = as_rng(rng)
        state = self.start(positions, gen)
        n_steps = int(np.ceil(duration_s / step_s))
        out = np.empty((n_steps + 1, state.n, 2))
        out[0] = state.positions
        for step in range(1, n_steps + 1):
            out[step] = self.step(state, step_s, gen)
        return out


def simulate_recluster_interval(
    n_nodes: int,
    cluster_diameter: float,
    mobility: RandomWaypointMobility = RandomWaypointMobility(),
    step_s: float = 1.0,
    max_duration_s: float = 600.0,
    n_trials: int = 20,
    rng: RngLike = None,
) -> List[float]:
    """Time until a fresh d-clustering first violates its diameter bound.

    For each trial: place nodes, cluster them, then walk until some cluster's
    diameter exceeds ``cluster_diameter`` — the moment CoMIMONet must
    re-cluster.  Returns the per-trial intervals (``max_duration_s`` when a
    clustering survived the whole window).
    """
    check_positive_int(n_nodes, "n_nodes")
    check_positive(cluster_diameter, "cluster_diameter")
    check_positive_int(n_trials, "n_trials")
    gen = as_rng(rng)
    intervals = []
    for _ in range(n_trials):
        start = mobility.initial_positions(n_nodes, gen)
        clusters = d_cluster(start, cluster_diameter)
        trajectory = mobility.walk(start, max_duration_s, step_s, gen)
        broke_at = max_duration_s
        for step in range(1, trajectory.shape[0]):
            try:
                validate_clustering(trajectory[step], clusters, cluster_diameter)
            except ValueError:
                broke_at = step * step_s
                break
        intervals.append(float(broke_at))
    return intervals
