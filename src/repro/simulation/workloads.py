"""Synthetic event-kernel workloads shared by benchmarks and tests.

Two classic queue-churn models:

* :func:`run_hold_churn` — the classic *hold model* of event-queue
  benchmarking: keep a constant population of ``hold`` pending timers
  (one per simulated node) and continuously dequeue/re-insert in
  batches through :meth:`schedule_many`.  This is the bulk
  fire-and-forget path and the workload the ≥1M events/sec target in
  ``benchmarks/bench_sim.py`` is measured on.
* :func:`run_selfclock_churn` — every dispatched event's callback
  reschedules itself with a pseudorandom delay and occasionally cancels
  a neighbouring timer; this exercises the per-event ``schedule`` +
  ``cancel`` registry path.

Both draw delays exclusively from a :func:`repro.utils.rng.as_rng`
generator, so a given ``(kernel, hold, n_events, seed)`` tuple replays
bit-identically.
"""

from __future__ import annotations

from typing import List, Optional

from repro.simulation.kernel import HeapKernel
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int

__all__ = ["run_hold_churn", "run_selfclock_churn", "verify_order_trace"]


def run_hold_churn(
    kernel: HeapKernel,
    hold: int,
    n_events: int,
    seed: int = 7,
    batch: int = 512,
) -> int:
    """Dequeue/re-insert churn at a constant ``hold`` population.

    Dispatches ``n_events`` no-op timers while re-inserting an equal
    number through ``schedule_many`` in chunks of ``batch``, so the
    structure holds ``hold`` (±``batch``) events throughout.  Returns
    the number of events dispatched.
    """
    check_positive_int(hold, "hold")
    check_positive_int(n_events, "n_events")
    check_positive_int(batch, "batch")
    rng = as_rng(seed)
    delays = rng.uniform(0.5, 1.5, size=n_events + hold).tolist()
    kernel.schedule_many(delays[:hold])
    i = hold
    processed = 0
    while processed < n_events:
        k = min(batch, n_events - processed)
        kernel.run(max_events=k)
        kernel.schedule_many(delays[i : i + k])
        i += k
        processed += k
    return processed


def run_selfclock_churn(
    kernel: HeapKernel,
    hold: int,
    n_events: int,
    seed: int = 7,
    cancel_every: int = 16,
) -> int:
    """Self-rescheduling timer churn with periodic cancellation.

    ``hold`` timers each reschedule themselves on firing; every
    ``cancel_every``-th firing also schedules a decoy timer and cancels
    it, exercising the id-registry path.  Returns the number of events
    dispatched (decoys are cancelled before they fire).
    """
    check_positive_int(hold, "hold")
    check_positive_int(n_events, "n_events")
    check_positive_int(cancel_every, "cancel_every")
    rng = as_rng(seed)
    n_delays = 1 << 16
    delays: List[float] = rng.uniform(0.5, 1.5, size=n_delays).tolist()
    mask = n_delays - 1
    fired = [0]
    schedule = kernel.schedule
    cancel = kernel.cancel

    def fire() -> None:
        i = fired[0]
        fired[0] = i + 1
        schedule(delays[i & mask], fire)
        if i % cancel_every == 0:
            decoy = schedule(delays[(i + 1) & mask], fire)
            cancel(decoy)

    for j in range(hold):
        schedule(delays[j & mask], fire)
    return kernel.run(max_events=n_events)


def verify_order_trace(
    kernel: HeapKernel, hold: int, n_events: int, seed: int = 7
) -> List[float]:
    """Dispatch a seeded churn and return the dispatch-time trace.

    Used by the dispatch-order tests: the kernel must produce the exact
    trace a brute-force ``(time, seq)`` reference scheduler produces for
    the same arguments.
    """
    trace: List[float] = []
    rng = as_rng(seed)
    n_delays = 1 << 12
    delays: List[float] = rng.uniform(0.1, 3.0, size=n_delays).tolist()
    mask = n_delays - 1
    fired = [0]
    schedule = kernel.schedule
    cancel = kernel.cancel
    pending: List[Optional[int]] = [None]

    def fire() -> None:
        trace.append(kernel.now)
        i = fired[0]
        fired[0] = i + 1
        eid = schedule(delays[i & mask], fire)
        if i % 7 == 0:
            prev = pending[0]
            if prev is not None:
                cancel(prev)
            pending[0] = eid
    kernel.schedule_many(delays[:hold], fire)
    kernel.run(max_events=n_events)
    return trace
