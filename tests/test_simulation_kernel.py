"""Event-kernel tests: dispatch order, cancellation, horizons."""

import pytest

from repro.simulation.kernel import HeapKernel
from repro.simulation.workloads import (
    run_hold_churn,
    run_selfclock_churn,
    verify_order_trace,
)


@pytest.fixture(params=[HeapKernel], ids=["heap"])
def kernel(request):
    return request.param()


class SortedReference:
    """Brute-force scheduler: each dispatch takes the minimum ``(time, seq)``
    over every live entry, so its order is correct by construction."""

    def __init__(self):
        self.now = 0.0
        self._live = {}  # seq -> (time, callback)
        self._seq = 0

    def schedule(self, delay, callback=None):
        eid = self._seq
        self._seq += 1
        self._live[eid] = (self.now + delay, callback)
        return eid

    def schedule_many(self, delays, callback=None):
        first = self._seq
        for delay in delays:
            self.schedule(delay, callback)
        return range(first, self._seq)

    def cancel(self, event_id):
        return self._live.pop(event_id, None) is not None

    def run(self, max_events):
        done = 0
        while self._live and done < max_events:
            time, seq = min((t, s) for s, (t, _) in self._live.items())
            callback = self._live.pop(seq)[1]
            self.now = time
            callback()
            done += 1
        return done


class TestOrdering:
    def test_time_order(self, kernel):
        log = []
        kernel.schedule(3.0, lambda: log.append("c"))
        kernel.schedule(1.0, lambda: log.append("a"))
        kernel.schedule(2.0, lambda: log.append("b"))
        kernel.run()
        assert log == ["a", "b", "c"]
        assert kernel.now == 3.0

    def test_fifo_at_same_instant(self, kernel):
        log = []
        for tag in "xyz":
            kernel.schedule(1.0, lambda t=tag: log.append(t))
        kernel.run()
        assert log == ["x", "y", "z"]

    def test_nested_scheduling(self, kernel):
        log = []

        def first():
            log.append(("first", kernel.now))
            kernel.schedule(0.5, lambda: log.append(("second", kernel.now)))

        kernel.schedule(1.0, first)
        kernel.run()
        assert log == [("first", 1.0), ("second", 1.5)]

    def test_schedule_at_absolute(self, kernel):
        kernel.schedule(1.0)
        kernel.run()
        log = []
        kernel.schedule_at(5.0, lambda: log.append(kernel.now))
        kernel.run()
        assert log == [5.0]

    def test_schedule_in_past_rejected(self, kernel):
        kernel.schedule(1.0)
        kernel.run()
        with pytest.raises(ValueError):
            kernel.schedule_at(0.5)

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.schedule(-1.0)
        with pytest.raises(ValueError):
            kernel.schedule_many([1.0, -0.5])


class TestEquivalence:
    """The kernel dispatches in the brute-force (time, seq) total order."""

    @pytest.mark.parametrize("hold,n_events", [(64, 2000), (500, 5000)])
    def test_order_trace_identical(self, hold, n_events):
        trace = verify_order_trace(HeapKernel(), hold, n_events)
        assert len(trace) == n_events
        assert trace == verify_order_trace(SortedReference(), hold, n_events)

    def test_selfclock_counts_match(self):
        a = run_selfclock_churn(HeapKernel(), hold=50, n_events=3000)
        b = run_selfclock_churn(SortedReference(), hold=50, n_events=3000)
        assert a == b == 3000

    def test_hold_churn_conserves_events(self, kernel):
        assert run_hold_churn(kernel, hold=256, n_events=4096) == 4096
        # every inserted event is either dispatched or still pending
        assert kernel.events_processed + kernel.pending == 4096 + 256


class TestCancellation:
    def test_cancelled_event_skipped(self, kernel):
        log = []
        eid = kernel.schedule(1.0, lambda: log.append("dead"))
        kernel.schedule(2.0, lambda: log.append("alive"))
        assert kernel.cancel(eid) is True
        kernel.run()
        assert log == ["alive"]
        assert kernel.events_processed == 1

    def test_cancel_unknown_id(self, kernel):
        assert kernel.cancel(12345) is False

    def test_cancel_after_fire(self, kernel):
        eid = kernel.schedule(1.0)
        kernel.run()
        assert kernel.cancel(eid) is False

    def test_double_cancel(self, kernel):
        eid = kernel.schedule(1.0)
        assert kernel.cancel(eid) is True
        assert kernel.cancel(eid) is False

    def test_batch_ids_not_cancellable(self, kernel):
        ids = kernel.schedule_many([1.0, 2.0])
        assert all(kernel.cancel(i) is False for i in ids)
        assert kernel.run() == 2

    def test_pending_excludes_cancelled(self, kernel):
        eid = kernel.schedule(1.0)
        kernel.schedule(2.0)
        assert kernel.pending == 2
        kernel.cancel(eid)
        assert kernel.pending == 1

    def test_cancel_from_callback(self, kernel):
        log = []
        victim = kernel.schedule(2.0, lambda: log.append("victim"))
        kernel.schedule(1.0, lambda: kernel.cancel(victim))
        kernel.schedule(3.0, lambda: log.append("after"))
        kernel.run()
        assert log == ["after"]


class TestBatchInsertion:
    def test_schedule_many_returns_id_range(self, kernel):
        first = kernel.schedule(1.0)
        ids = kernel.schedule_many([0.5, 1.5, 2.5])
        assert list(ids) == [first + 1, first + 2, first + 3]
        assert kernel.pending == 4

    def test_empty_batch(self, kernel):
        assert len(kernel.schedule_many([])) == 0
        assert kernel.pending == 0

    def test_batch_interleaves_with_singles(self, kernel):
        log = []
        kernel.schedule(2.0, lambda: log.append("single"))
        kernel.schedule_many([1.0, 3.0], lambda: log.append("batch"))
        kernel.run()
        assert log == ["batch", "single", "batch"]


class TestHorizons:
    def test_run_until_stops_clock(self, kernel):
        log = []
        kernel.schedule(1.0, lambda: log.append(1))
        kernel.schedule(10.0, lambda: log.append(10))
        kernel.run(until=5.0)
        assert log == [1]
        assert kernel.now == 5.0
        assert kernel.pending == 1
        kernel.run()
        assert log == [1, 10]
        assert kernel.now == 10.0

    def test_until_advances_clock_when_queue_empty(self, kernel):
        kernel.run(until=7.0)
        assert kernel.now == 7.0

    def test_until_is_inclusive(self, kernel):
        log = []
        kernel.schedule(5.0, lambda: log.append(kernel.now))
        kernel.run(until=5.0)
        assert log == [5.0]

    def test_repeated_until_grid(self, kernel):
        """Snapshot-style run(until=k*dt) loops land exactly on the grid."""
        fired = []
        kernel.schedule_many([0.3, 1.7, 2.2, 4.9], lambda: fired.append(kernel.now))
        for k in range(1, 6):
            kernel.run(until=float(k))
            assert kernel.now == float(k)
        assert fired == [0.3, 1.7, 2.2, 4.9]

    def test_max_events_budget(self, kernel):
        log = []
        for i in range(5):
            kernel.schedule(float(i + 1), lambda i=i: log.append(i))
        assert kernel.run(max_events=2) == 2
        assert log == [0, 1]
        assert kernel.pending == 3
        kernel.run()
        assert log == [0, 1, 2, 3, 4]

    def test_budget_does_not_advance_to_until(self, kernel):
        kernel.schedule(1.0)
        kernel.schedule(2.0)
        kernel.run(until=10.0, max_events=1)
        assert kernel.now == 1.0

    def test_step(self, kernel):
        log = []
        kernel.schedule(1.0, lambda: log.append("a"))
        assert kernel.step() is True
        assert kernel.step() is False
        assert log == ["a"]
