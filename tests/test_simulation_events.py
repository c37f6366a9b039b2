"""Discrete-event scheduler tests: ordering, cancellation, horizons.

These drive `HeapKernel` through the `repro.simulation` package export,
one scheduling call at a time, the way the scenario runtime uses it.
"""

import pytest

from repro.simulation import HeapKernel


class TestOrdering:
    def test_time_order(self):
        sched = HeapKernel()
        log = []
        sched.schedule(3.0, lambda: log.append("c"))
        sched.schedule(1.0, lambda: log.append("a"))
        sched.schedule(2.0, lambda: log.append("b"))
        sched.run()
        assert log == ["a", "b", "c"]
        assert sched.now == 3.0

    def test_fifo_at_same_instant(self):
        sched = HeapKernel()
        log = []
        for tag in "xyz":
            sched.schedule(1.0, lambda t=tag: log.append(t))
        sched.run()
        assert log == ["x", "y", "z"]

    def test_nested_scheduling(self):
        sched = HeapKernel()
        log = []

        def first():
            log.append(("first", sched.now))
            sched.schedule(0.5, lambda: log.append(("second", sched.now)))

        sched.schedule(1.0, first)
        sched.run()
        assert log == [("first", 1.0), ("second", 1.5)]

    def test_schedule_at_absolute(self):
        sched = HeapKernel()
        sched.schedule(1.0, lambda: None)
        sched.run()
        log = []
        sched.schedule_at(5.0, lambda: log.append(sched.now))
        sched.run()
        assert log == [5.0]

    def test_schedule_in_past_rejected(self):
        sched = HeapKernel()
        sched.schedule(1.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            HeapKernel().schedule(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sched = HeapKernel()
        log = []
        event_id = sched.schedule(1.0, lambda: log.append("dead"))
        sched.schedule(2.0, lambda: log.append("alive"))
        assert sched.cancel(event_id) is True
        sched.run()
        assert log == ["alive"]
        assert sched.events_processed == 1


class TestBatchInsertion:
    def test_schedule_many_orders_with_singles(self):
        sched = HeapKernel()
        log = []
        sched.schedule(2.0, lambda: log.append("single"))
        sched.schedule_many([1.0, 3.0], lambda: log.append("batch"))
        sched.run()
        assert log == ["batch", "single", "batch"]

    def test_schedule_many_rejects_negative(self):
        sched = HeapKernel()
        with pytest.raises(ValueError):
            sched.schedule_many([1.0, -2.0], lambda: None)
        assert sched.pending == 0

    def test_schedule_many_empty(self):
        sched = HeapKernel()
        assert len(sched.schedule_many([], lambda: None)) == 0
        assert sched.pending == 0


class TestHorizons:
    def test_run_until_stops_clock(self):
        sched = HeapKernel()
        log = []
        sched.schedule(1.0, lambda: log.append(1))
        sched.schedule(10.0, lambda: log.append(10))
        sched.run(until=5.0)
        assert log == [1]
        assert sched.now == 5.0
        assert sched.pending == 1
        sched.run()
        assert log == [1, 10]

    def test_until_advances_clock_when_queue_empty(self):
        sched = HeapKernel()
        sched.run(until=7.0)
        assert sched.now == 7.0

    def test_max_events_budget(self):
        sched = HeapKernel()
        log = []
        for i in range(5):
            sched.schedule(float(i), lambda i=i: log.append(i))
        sched.run(max_events=2)
        assert log == [0, 1]

    def test_step(self):
        sched = HeapKernel()
        log = []
        sched.schedule(1.0, lambda: log.append("a"))
        assert sched.step() is True
        assert sched.step() is False
        assert log == ["a"]
