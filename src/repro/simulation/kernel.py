"""High-throughput discrete-event kernel with integer event ids.

:class:`HeapKernel` is the scheduler behind the city-scale scenario
runtime (`repro.scenario`), where event throughput is the budget that
everything else spends.  It is `heapq`-backed, O(log n) per operation,
and the C implementation of `heapq` keeps it fast at the populations the
runtime holds.

Events dispatch in the total order ``(time, seq)``, with ``seq`` the
global admission counter, so events scheduled for the same instant fire
in scheduling order and a scenario replays bit-identically (checked
against a brute-force ``sorted((time, seq))`` reference in
``tests/test_simulation_kernel.py``).

Design notes for the hot path:

* Events are plain ``[time, seq, callback]`` records; event ids are the
  ``seq`` integers ("handle-free": cancellation is ``cancel(event_id)``
  with no token object to keep alive).
* Only events admitted through :meth:`HeapKernel.schedule` /
  :meth:`HeapKernel.schedule_at` are registered for cancellation.
  :meth:`HeapKernel.schedule_many` is the bulk fire-and-forget path — it
  skips the registry entirely, which is what keeps the per-event cost
  low enough for the ≥1M events/sec target (``benchmarks/bench_sim.py``).
  ``cancel`` on a batch id returns ``False``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["HeapKernel"]

_INF = float("inf")


class _Cancelled:
    """Sentinel stored in an entry's callback slot when it is cancelled."""

    __slots__ = ()


_CANCELLED = _Cancelled()

Callback = Optional[Callable[[], None]]


def _check_delays(delays: Sequence[float]) -> None:
    if len(delays) > 0 and min(delays) < 0.0:
        raise ValueError("delays must be non-negative")


class HeapKernel:
    """Binary-heap event kernel with integer event ids.

    ``schedule``/``schedule_at`` return an ``int`` event id that can be
    passed to :meth:`cancel`; ``schedule_many`` bulk-inserts
    fire-and-forget events (not cancellable).
    """

    __slots__ = ("_queue", "_entries", "_now", "_seq", "_processed")

    def __init__(self) -> None:
        self._queue: List[List[Any]] = []
        self._entries: Dict[int, List[Any]] = {}
        self._now = 0.0
        self._seq = 0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of live queued events (cancelled events excluded)."""
        return len(self._queue) - self._tombstones()

    def _tombstones(self) -> int:
        return sum(1 for e in self._queue if e[2] is _CANCELLED)

    def schedule(self, delay: float, callback: Callback = None) -> int:
        """Schedule ``callback`` after ``delay``; returns a cancellable id."""
        if delay < 0.0:
            raise ValueError("delay must be non-negative")
        eid = self._seq
        self._seq = eid + 1
        entry = [self._now + delay, eid, callback]
        self._entries[eid] = entry
        heapq.heappush(self._queue, entry)
        return eid

    def schedule_at(self, time: float, callback: Callback = None) -> int:
        """Schedule ``callback`` at an absolute time (``>= now``)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        return self.schedule(time - self._now, callback)

    def schedule_many(self, delays: Sequence[float], callback: Callback = None) -> range:
        """Bulk-insert fire-and-forget events; returns their id range.

        Batch events skip the cancellation registry (that is what makes
        this the fast path); ``cancel`` on an id from the returned range
        reports ``False``.
        """
        _check_delays(delays)
        now = self._now
        seq = self._seq
        queue = self._queue
        push = heapq.heappush
        for d in delays:
            push(queue, [now + d, seq, callback])
            seq += 1
        first = self._seq
        self._seq = seq
        return range(first, seq)

    def cancel(self, event_id: int) -> bool:
        """Cancel a pending event by id; ``False`` if unknown or already run."""
        entry = self._entries.pop(event_id, None)
        if entry is None:
            return False
        entry[2] = _CANCELLED
        return True

    def step(self) -> bool:
        """Dispatch the next live event; ``False`` when the queue is empty."""
        return self.run(max_events=1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events in ``(time, seq)`` order; returns the count.

        With ``until`` set the clock lands exactly on ``until`` when the
        queue drains earlier or the next event lies beyond the horizon.
        """
        queue = self._queue
        entries = self._entries
        pop = heapq.heappop
        limit = _INF if until is None else until
        budget = -1 if max_events is None else max_events
        done = 0
        while queue and done != budget:
            entry = queue[0]
            cb = entry[2]
            if cb is _CANCELLED:
                pop(queue)
                continue
            t = entry[0]
            if t > limit:
                break
            pop(queue)
            entries.pop(entry[1], None)
            self._now = t
            if cb is not None:
                cb()
            done += 1
        if until is not None and self._now < until and not (
            queue and done == budget
        ):
            self._now = until
        self._processed += done
        return done
