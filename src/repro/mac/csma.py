"""CSMA/CA medium-access simulation.

A slotted 802.11-DCF-style model: stations with saturated or Poisson
traffic sense the shared medium, defer for DIFS, draw a random backoff
from a contention window that doubles per collision (binary exponential
backoff), transmit, and expect an ACK after SIFS.  Simultaneous
transmissions collide; collided frames are retried up to a retry limit.
:meth:`CsmaCaSimulator.run` advances its own clock from one contention
decision to the next; it does not use the :mod:`repro.simulation` event
kernel.

CoMIMONet uses this at the link layer (Section 2.1) — within a cluster the
head and members contend for the intra-cluster channel; between clusters
the heads contend on the long-haul channel.  The simulator reports
throughput, collision probability and mean access delay, and the network
examples use it to budget per-hop latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_non_negative, check_non_negative_int

__all__ = ["CsmaConfig", "MacStats", "CsmaCaSimulator"]


@dataclass(frozen=True)
class CsmaConfig:
    """Timing and backoff parameters (defaults ~802.11b long-preamble-ish).

    All durations are in microseconds.

    ``rts_cts=True`` enables the RTS/CTS virtual-carrier-sense handshake:
    every successful exchange pays the extra RTS+CTS (+2 SIFS) overhead,
    but a collision now only burns an RTS instead of the whole data frame —
    the classical trade that pays off with many contenders and long frames.
    """

    slot_us: float = 20.0
    sifs_us: float = 10.0
    difs_us: float = 50.0
    ack_us: float = 240.0
    frame_us: float = 1200.0  # payload airtime
    cw_min: int = 32
    cw_max: int = 1024
    retry_limit: int = 7
    rts_cts: bool = False
    rts_us: float = 160.0
    cts_us: float = 120.0

    def __post_init__(self) -> None:
        if min(self.slot_us, self.sifs_us, self.difs_us, self.ack_us, self.frame_us) <= 0:
            raise ValueError("all durations must be positive")
        if min(self.rts_us, self.cts_us) <= 0:
            raise ValueError("rts_us and cts_us must be positive")
        if not (1 <= self.cw_min <= self.cw_max):
            raise ValueError("need 1 <= cw_min <= cw_max")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")

    @property
    def success_overhead_us(self) -> float:
        """Airtime of one successful exchange beyond DIFS + backoff."""
        base = self.frame_us + self.sifs_us + self.ack_us
        if self.rts_cts:
            base += self.rts_us + self.sifs_us + self.cts_us + self.sifs_us
        return base

    @property
    def collision_cost_us(self) -> float:
        """Channel time burned by a collision (before the following DIFS)."""
        return self.rts_us if self.rts_cts else self.frame_us


@dataclass
class MacStats:
    """Aggregate outcome of a CSMA/CA run."""

    delivered: int = 0
    collisions: int = 0
    dropped: int = 0
    attempts: int = 0
    busy_time_us: float = 0.0
    sim_time_us: float = 0.0
    access_delays_us: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_non_negative_int(self.delivered, "delivered")
        check_non_negative_int(self.collisions, "collisions")
        check_non_negative_int(self.dropped, "dropped")
        check_non_negative_int(self.attempts, "attempts")
        check_non_negative(self.busy_time_us, "busy_time_us")
        check_non_negative(self.sim_time_us, "sim_time_us")

    @property
    def collision_probability(self) -> float:
        """Fraction of transmission attempts that collided."""
        return self.collisions / self.attempts if self.attempts else 0.0

    @property
    def mean_access_delay_us(self) -> float:
        """Average queue-head-to-ACK delay of delivered frames."""
        return float(np.mean(self.access_delays_us)) if self.access_delays_us else 0.0

    @property
    def channel_utilization(self) -> float:
        """Fraction of time the medium carried (any) transmission."""
        return self.busy_time_us / self.sim_time_us if self.sim_time_us else 0.0

    def throughput_frames_per_s(self) -> float:
        """Delivered frames per second of simulated time."""
        if self.sim_time_us == 0.0:
            return 0.0
        return self.delivered / (self.sim_time_us * 1e-6)


class _Station:
    __slots__ = ("station_id", "cw", "retries", "backoff_slots", "frame_start_us", "has_frame")

    def __init__(self, station_id: int) -> None:
        self.station_id = station_id
        self.cw = 0  # set on frame arrival
        self.retries = 0
        self.backoff_slots = 0
        self.frame_start_us = 0.0
        self.has_frame = False


class CsmaCaSimulator:
    """Slot-synchronous CSMA/CA with binary exponential backoff.

    The implementation advances the shared medium in alternating idle-slot /
    transmission phases (the standard Bianchi-style slotted abstraction):
    at every slot boundary each backlogged station decrements its backoff;
    stations reaching zero transmit; more than one simultaneous transmitter
    is a collision.  The abstraction preserves the collision statistics of
    the full asynchronous protocol under carrier sensing.

    Parameters
    ----------
    n_stations:
        Number of contending stations.
    config:
        Protocol timing/backoff parameters.
    saturated:
        If True every station always has a frame queued (throughput upper
        bound); if False, frames arrive per-station as Poisson processes
        with rate ``arrival_rate_fps`` frames/second.
    """

    def __init__(
        self,
        n_stations: int,
        config: CsmaConfig = CsmaConfig(),
        saturated: bool = True,
        arrival_rate_fps: float = 100.0,
        rng: RngLike = None,
    ) -> None:
        if n_stations < 1:
            raise ValueError("n_stations must be >= 1")
        if arrival_rate_fps <= 0.0:
            raise ValueError("arrival_rate_fps must be positive")
        self.config = config
        self.saturated = saturated
        self.arrival_rate_fps = arrival_rate_fps
        self.rng = as_rng(rng)
        self.stations = [_Station(i) for i in range(n_stations)]
        self.stats = MacStats()

    # ------------------------------------------------------------------ #

    def _draw_backoff(self, station: _Station) -> None:
        cw = min(self.config.cw_min * (2**station.retries), self.config.cw_max)
        station.cw = cw
        station.backoff_slots = int(self.rng.integers(0, cw))

    def _arm_station(self, station: _Station, now_us: float) -> None:
        station.has_frame = True
        station.retries = 0
        station.frame_start_us = now_us
        self._draw_backoff(station)

    def run(self, duration_us: float) -> MacStats:
        """Simulate the medium for ``duration_us`` and return statistics."""
        if duration_us <= 0.0:
            raise ValueError("duration_us must be positive")
        cfg = self.config
        now = 0.0

        next_arrival = np.full(len(self.stations), np.inf)
        if self.saturated:
            for st in self.stations:
                self._arm_station(st, 0.0)
        else:
            mean_gap_us = 1e6 / self.arrival_rate_fps
            next_arrival = self.rng.exponential(mean_gap_us, len(self.stations))

        while now < duration_us:
            # Deliver any pending arrivals up to the current time.
            if not self.saturated:
                for st in self.stations:
                    if not st.has_frame and next_arrival[st.station_id] <= now:
                        self._arm_station(st, next_arrival[st.station_id])
                        next_arrival[st.station_id] = np.inf

            backlogged = [st for st in self.stations if st.has_frame]
            if not backlogged:
                if self.saturated:
                    break  # unreachable: saturated stations always re-arm
                upcoming = next_arrival.min()
                if upcoming == np.inf or upcoming >= duration_us:
                    break
                now = float(upcoming)
                continue

            # Advance to the end of the next contention decision: every
            # backlogged station waits DIFS then counts down idle slots.
            min_backoff = min(st.backoff_slots for st in backlogged)
            now += cfg.difs_us + min_backoff * cfg.slot_us
            if now >= duration_us:
                break
            transmitters = [st for st in backlogged if st.backoff_slots == min_backoff]
            for st in backlogged:
                st.backoff_slots -= min_backoff

            self.stats.attempts += len(transmitters)
            airtime = cfg.success_overhead_us
            if len(transmitters) == 1:
                st = transmitters[0]
                now += airtime
                self.stats.busy_time_us += airtime
                self.stats.delivered += 1
                self.stats.access_delays_us.append(now - st.frame_start_us)
                st.has_frame = False
                if self.saturated:
                    self._arm_station(st, now)
                else:
                    gap = float(self.rng.exponential(1e6 / self.arrival_rate_fps))
                    next_arrival[st.station_id] = now + gap
            else:
                # Collision: the colliding stations burn the collision cost
                # (whole frame, or just the RTS under RTS/CTS) and no ACK.
                now += cfg.collision_cost_us + cfg.difs_us
                self.stats.busy_time_us += cfg.collision_cost_us
                self.stats.collisions += len(transmitters)
                for st in transmitters:
                    st.retries += 1
                    if st.retries > cfg.retry_limit:
                        self.stats.dropped += 1
                        st.has_frame = False
                        if self.saturated:
                            self._arm_station(st, now)
                        else:
                            gap = float(self.rng.exponential(1e6 / self.arrival_rate_fps))
                            next_arrival[st.station_id] = now + gap
                    else:
                        self._draw_backoff(st)

        self.stats.sim_time_us = min(now, duration_us)
        return self.stats
