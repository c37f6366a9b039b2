"""How fast the host's cores are while they are being measured.

On a host whose vCPUs are shared with other tenants (this benchmark was
measured on 2 vCPUs of an Intel Xeon under KVM), each core changes speed
every few seconds, independently of the other core: a fixed unit of work
takes 0.25 ms, or up to 0.55 ms.  Every CPU-bound number of the service
moves with it: raw latency and CPU per request varied by 20-75% between
runs of one commit, more than any bound worth gating.

So while a window is measured a witness process (this file, run as a
script) times a fixed unit of work — JSON encode/decode, SHA-256, dict
work and a small NumPy reduction, like the service's own mix, but none of
the program's code — on each core in turn, every :data:`PERIOD_S`.  It
runs at real-time priority (``SCHED_FIFO``): no server, generator or
helper task can take the core from it while it times a unit, so how busy
the program keeps a core cannot change what the witness measures; it
only ever delays them, by about 1% of a core.  Where the kernel refuses
real-time priority the witness runs at normal priority, and the report
says so (:func:`realtime_allowed`).

Each sample times the second of two back-to-back units: a unit run
straight after an idle sleep also pays for cold caches and a waking core,
which measures the idle gap, not the host.  The slowest :data:`TRIM` of
the samples around an interval are dropped (interrupts, a descheduled
vCPU).
"""

import bisect
import contextlib
import hashlib
import itertools
import json
import os
import sys
import time
from typing import Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np

from sut import Sidecar, sample_until_stdin_closes

#: Seconds between two witness samples while a window is measured.
PERIOD_S = 0.05
#: Unit time on the measuring host in its fast state: the reference speed.
REFERENCE_S = 0.25e-3
#: Share of the slowest samples dropped before averaging.
TRIM = 0.1
#: Samples that make a local estimate; short intervals borrow neighbours.
MIN_SAMPLES = 8

_PAYLOAD = {
    "rows": [
        {"d1": 10.0 + 0.5 * k, "m": 2, "bandwidth": 10e3, "e1": 2.06e-06 * k, "feasible": True}
        for k in range(32)
    ],
    "count": 32,
}
_ARRAY = np.linspace(1.0, 2.0, 256)


@contextlib.contextmanager
def realtime() -> Iterator[bool]:
    """This process at the lowest ``SCHED_FIFO`` priority while the block
    runs (children it forks start at normal priority).  Yields whether the
    kernel allowed it; where it did not, the block runs unchanged."""
    policy, param = os.sched_getscheduler(0), os.sched_getparam(0)
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO | os.SCHED_RESET_ON_FORK, os.sched_param(1))
    except PermissionError:
        yield False
        return
    try:
        yield True
    finally:
        os.sched_setscheduler(0, policy, param)


def realtime_allowed() -> bool:
    with realtime() as granted:
        return granted


def unit() -> float:
    """Seconds one fixed unit of service-like work takes right now."""
    started = time.perf_counter()  # lint: ignore[RP103]
    for _ in range(2):
        blob = json.dumps(_PAYLOAD, sort_keys=True)
        decoded = json.loads(blob)
        digest = hashlib.sha256(blob.encode("utf-8")).digest()
        float(np.log1p(_ARRAY * len(decoded["rows"])).sum() + digest[0])
    return time.perf_counter() - started  # lint: ignore[RP103]


def warm_unit(cpu: int) -> float:
    """A warm unit's time on ``cpu``; the caller returns to its own cores."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        unit()
        return unit()
    finally:
        os.sched_setaffinity(0, home)


def slowdown(units: List[float]) -> float:
    """Trimmed mean unit time over the reference unit time."""
    kept = sorted(units)[: max(1, round(len(units) * (1.0 - TRIM)))]
    return sum(kept) / len(kept) / REFERENCE_S


def burst(cpus: Set[int], count: int = 20) -> List[float]:
    """``count`` warm units on each of ``cpus`` (around a server boot)."""
    with realtime():
        return [warm_unit(cpu) for cpu in sorted(cpus) for _ in range(count)]


class Witness(Sidecar):
    """Timestamped warm-unit samples taken on ``cpus`` by a separate
    process, while the ``with`` block runs."""

    def __init__(self, cpus: Set[int]) -> None:
        super().__init__(cpus, [__file__, ",".join(str(cpu) for cpu in sorted(cpus))])
        self.series: Dict[int, Tuple[List[float], List[float]]] = {cpu: ([], []) for cpu in cpus}

    def __exit__(self, *exc: object) -> None:
        super().__exit__(*exc)
        for time_s, cpu, unit_s in self.samples:
            times, units = self.series[cpu]
            times.append(time_s)
            units.append(unit_s)

    def slowdown(self, start: float, end: float, cpus: Iterable[int]) -> float:
        """The mean over ``cpus`` of each one's slowdown over
        ``[start, end]``: the samples taken in it, or the
        :data:`MIN_SAMPLES` nearest its middle when it is shorter."""
        factors = []
        for cpu in cpus:
            times, units = self.series[cpu]
            lo = bisect.bisect_left(times, start)
            hi = bisect.bisect_right(times, end)
            if hi - lo < MIN_SAMPLES:
                middle = bisect.bisect_left(times, (start + end) / 2.0)
                lo = max(0, min(middle - MIN_SAMPLES // 2, len(times) - MIN_SAMPLES))
                hi = lo + MIN_SAMPLES
            factors.append(slowdown(units[lo:hi]))
        return sum(factors) / len(factors)

    def overall(self, cpus: Set[int]) -> float:
        return sum(slowdown(self.series[cpu][1]) for cpu in cpus) / len(cpus)


def _sample(cores: Iterator[int]) -> Tuple[float, int, float]:
    cpu = next(cores)
    return time.perf_counter(), cpu, warm_unit(cpu)  # lint: ignore[RP103]


if __name__ == "__main__":
    with realtime():
        cycle = itertools.cycle(int(cpu) for cpu in sys.argv[1].split(","))
        sample_until_stdin_closes(PERIOD_S, lambda: _sample(cycle))
