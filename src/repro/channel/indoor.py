"""Indoor propagation environment for the simulated testbed.

The paper's Section 6.4 experiments run on real USRP nodes in labs and
corridors, with a "thick board" between sender and receiver (Table 2) and
"multiple concrete walls" between two labs (Table 3).  This module is the
software substitute: a 2-D floor plan of attenuating segments on top of a
log-distance path-loss law with log-normal shadowing.

The key output is the *average link SNR* between two positions for a given
transmit power; :mod:`repro.phy.link` then runs the modulated Monte-Carlo
chain at that SNR with small-scale (Rayleigh/Rician) fading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.channel.pathloss import LogDistancePathLoss
from repro.channel.shadowing import LogNormalShadowing
from repro.utils.rng import as_rng
from repro.utils.validation import check_finite

__all__ = ["Wall", "Obstacle", "IndoorChannel"]


@dataclass(frozen=True)
class Wall:
    """An attenuating line segment (concrete wall, partition, board...).

    Any propagation path crossing the segment picks up ``attenuation_db``.
    """

    start: Tuple[float, float]
    end: Tuple[float, float]
    attenuation_db: float

    def __post_init__(self) -> None:
        if self.attenuation_db < 0.0:
            raise ValueError("attenuation_db must be non-negative")
        if np.allclose(self.start, self.end):
            raise ValueError("wall endpoints must be distinct")


#: A movable obstacle (the paper's "thick board") — physically identical to a
#: wall for propagation purposes; the alias keeps experiment code readable.
Obstacle = Wall


def _orient(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Signed area orientation of the triple (p, q, r)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def segments_intersect(
    a0: np.ndarray, a1: np.ndarray, b0: np.ndarray, b1: np.ndarray
) -> bool:
    """Proper or touching intersection test for segments ``a0a1`` and ``b0b1``."""
    d1 = _orient(b0, b1, a0)
    d2 = _orient(b0, b1, a1)
    d3 = _orient(a0, a1, b0)
    d4 = _orient(a0, a1, b1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0:
        return True

    def on_segment(p, q, r):
        return (
            min(p[0], q[0]) - 1e-12 <= r[0] <= max(p[0], q[0]) + 1e-12
            and min(p[1], q[1]) - 1e-12 <= r[1] <= max(p[1], q[1]) + 1e-12
        )

    if d1 == 0 and on_segment(b0, b1, a0):
        return True
    if d2 == 0 and on_segment(b0, b1, a1):
        return True
    if d3 == 0 and on_segment(a0, a1, b0):
        return True
    if d4 == 0 and on_segment(a0, a1, b1):
        return True
    return False


@dataclass
class IndoorChannel:
    """Floor plan + propagation law for the simulated indoor testbed.

    Parameters
    ----------
    pathloss:
        Distance law; defaults to a 2.4 GHz-ish indoor log-distance model.
    walls:
        Attenuating segments.  A link crossing ``k`` walls accumulates the
        sum of their attenuations.
    shadowing:
        Log-normal spread applied per-link (sampled once per link with a
        deterministic hash of the endpoints, so a fixed layout has fixed
        average SNRs — matching how a static testbed behaves run-to-run).
    noise_power_dbm:
        Receiver noise power in the signal bandwidth (thermal + NF).  At
        250 kbps and a 10 dB noise figure, ``-174 + 10 log10(250e3) + 10``
        is about -110 dBm; the default is that value.
    """

    pathloss: LogDistancePathLoss = field(default_factory=LogDistancePathLoss)
    walls: List[Wall] = field(default_factory=list)
    shadowing: LogNormalShadowing = field(default_factory=lambda: LogNormalShadowing(0.0))
    noise_power_dbm: float = -110.0
    _shadow_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        check_finite(self.noise_power_dbm, "noise_power_dbm")

    # ------------------------------------------------------------------ #

    def blockage_db(self, tx_position, rx_position) -> float:
        """Total wall/obstacle attenuation on the straight path tx→rx."""
        a0 = np.asarray(tx_position, dtype=float)
        a1 = np.asarray(rx_position, dtype=float)
        total = 0.0
        for wall in self.walls:
            if segments_intersect(
                a0, a1, np.asarray(wall.start, float), np.asarray(wall.end, float)
            ):
                total += wall.attenuation_db
        return total

    def is_line_of_sight(self, tx_position, rx_position) -> bool:
        """True if no wall crosses the direct path."""
        return self.blockage_db(tx_position, rx_position) == 0.0

    def _shadow_db(self, tx_position, rx_position) -> float:
        """Deterministic per-link shadowing draw (symmetric in endpoints)."""
        if self.shadowing.sigma_db == 0.0:
            return 0.0
        key = tuple(sorted([tuple(np.round(tx_position, 6)), tuple(np.round(rx_position, 6))]))
        if key not in self._shadow_cache:
            seed = abs(hash(key)) % (2**32)
            self._shadow_cache[key] = float(
                self.shadowing.sample_db(rng=as_rng(seed))
            )
        return self._shadow_cache[key]

    def link_loss_db(self, tx_position, rx_position) -> float:
        """Total average loss: distance law + walls + per-link shadowing."""
        a = np.asarray(tx_position, dtype=float)
        b = np.asarray(rx_position, dtype=float)
        dist = float(np.linalg.norm(a - b))
        if dist <= 0.0:
            raise ValueError("tx and rx positions must differ")
        return (
            float(self.pathloss.attenuation_db(dist))
            + self.blockage_db(a, b)
            + self._shadow_db(a, b)
        )

    def average_snr_db(self, tx_position, rx_position, tx_power_dbm: float) -> float:
        """Mean link SNR in dB for the given transmit power."""
        rx_power_dbm = tx_power_dbm - self.link_loss_db(tx_position, rx_position)
        return rx_power_dbm - self.noise_power_dbm
