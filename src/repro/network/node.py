"""Secondary-user node model.

Each SU is a single-antenna radio with a position and a finite battery.
Head election (Section 2.1: "the head node retains information of other
elementary nodes such as ID and battery power level") uses the battery
level, so the node tracks cumulative energy consumption explicitly.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = ["SUNode"]


class SUNode:
    """A single-antenna secondary-user node.

    Parameters
    ----------
    node_id:
        Unique integer identifier.
    position:
        Planar coordinates [m].
    battery_j:
        Initial battery energy [J].  ``float('inf')`` models a mains-powered
        node (the default keeps energy accounting optional).
    """

    __slots__ = ("node_id", "_position", "battery_j", "_consumed_j")

    def __init__(
        self,
        node_id: int,
        position: Tuple[float, float],
        battery_j: float = float("inf"),
    ) -> None:
        if node_id < 0:
            raise ValueError("node_id must be non-negative")
        if battery_j <= 0.0:
            raise ValueError("battery_j must be positive")
        self.node_id = int(node_id)
        self._position = np.asarray(position, dtype=float)
        if self._position.shape != (2,):
            raise ValueError(f"position must be a 2-vector, got {self._position.shape}")
        self.battery_j = float(battery_j)
        self._consumed_j = 0.0

    # ------------------------------------------------------------------ #

    @property
    def position(self) -> np.ndarray:
        """Node coordinates (read-only view)."""
        view = self._position.view()
        view.flags.writeable = False
        return view

    @property
    def consumed_j(self) -> float:
        """Total energy drawn from the battery so far [J]."""
        return self._consumed_j

    @property
    def remaining_j(self) -> float:
        """Battery energy remaining [J] (never negative)."""
        return max(self.battery_j - self._consumed_j, 0.0)

    @property
    def alive(self) -> bool:
        """True while the battery has energy left (``remaining_j > 0``)."""
        return self._consumed_j < self.battery_j

    def consume(self, energy_j: float) -> None:
        """Draw ``energy_j`` joules from the battery.

        Raises
        ------
        ValueError
            On negative draws.
        RuntimeError
            If the node is already exhausted (callers should check
            :attr:`alive` and reconfigure the network instead).
        """
        if energy_j < 0.0:
            raise ValueError("energy_j must be non-negative")
        if not self.alive:
            raise RuntimeError(f"node {self.node_id} battery exhausted")
        self._consumed_j += energy_j

    def drain(self, energy_j: float) -> bool:
        """Draw up to ``energy_j`` joules, letting the last draw empty the
        battery: ``consume(min(energy_j, remaining_j))`` while alive, and a
        no-op on an exhausted node.

        Returns True iff this draw emptied the battery (the node was alive
        before it and is dead after it)."""
        remaining = self.battery_j - self._consumed_j
        if remaining > 0.0:
            if energy_j < 0.0:
                raise ValueError("energy_j must be non-negative")
            self._consumed_j += min(energy_j, remaining)
            return self._consumed_j >= self.battery_j
        return False

    @staticmethod
    def drain_all(nodes: Iterable["SUNode"], energy_j: float) -> List["SUNode"]:
        """:meth:`drain` ``energy_j`` from each node in turn, in one call.

        The same arithmetic as one :meth:`drain` per node; returns the
        nodes this call emptied, in order."""
        emptied: List[SUNode] = []
        for node in nodes:
            remaining = node.battery_j - node._consumed_j
            if remaining > 0.0:
                if energy_j < 0.0:
                    raise ValueError("energy_j must be non-negative")
                # min(energy_j, remaining): the first argument unless the
                # second is smaller.
                node._consumed_j += remaining if remaining < energy_j else energy_j
                if node._consumed_j >= node.battery_j:
                    emptied.append(node)
        return emptied

    def move_to(self, position: Tuple[float, float]) -> None:
        """Update the node's coordinates [m] (a mobility tick).

        Battery state is untouched; previously returned position views
        keep the old coordinates.
        """
        pos = np.asarray(position, dtype=float)
        if pos.shape != (2,):
            raise ValueError(f"position must be a 2-vector, got {pos.shape}")
        self._position = pos

    def distance_to(self, other: "SUNode") -> float:
        """Euclidean distance to another node [m]."""
        return float(np.linalg.norm(self._position - other._position))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        x, y = self._position
        return f"SUNode(id={self.node_id}, pos=({x:.1f}, {y:.1f}), remaining={self.remaining_j:.3g} J)"
