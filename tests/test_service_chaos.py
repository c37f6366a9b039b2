"""Chaos-injection tests: kill workers, stall requests, truncate responses.

Every scenario runs the *real* stack — ThreadedServer, asyncio server,
HTTP framing, worker pool — with one deterministic fault armed on the
live :class:`FaultInjector`, then asserts the exact recovery behavior
promised by the resilience layer: supervised pool restarts with
bit-identical retried results, 504 deadlines that never stall the event
loop, degraded inline fallback, and truncated responses surfacing as
transport failures.
"""

import threading
import time

import pytest

from repro.service import work
from repro.service.client import ServiceClientError
from repro.service.config import ServiceConfig
from repro.service.schemas import UnderlayRequest
from repro.service.testing import ThreadedServer

DISTANCES = [float(d) for d in range(40, 140, 5)]
UNDERLAY_ARGS = dict(p=1e-3, mt=2, mr=2, d=5.0, bandwidth=10e3)


def _underlay_direct():
    return work.underlay_rows(
        UnderlayRequest(distances=tuple(DISTANCES), **UNDERLAY_ARGS)
    )


class TestWorkerKill:
    def test_kill_recovers_retries_and_stays_bit_identical(self):
        config = ServiceConfig(
            port=0, workers=1, coalesce_ms=0.0, request_log=False
        )
        with ThreadedServer(config) as server:
            server.service.faults.arm_kill_worker(1)
            payload = server.client().underlay_energy(
                distance=DISTANCES, **UNDERLAY_ARGS
            )
            # The sweep that rode through a SIGKILLed worker must match the
            # direct library call bit for bit.
            assert payload["rows"] == _underlay_direct()
            assert payload["count"] == len(DISTANCES)

            snap = server.client().metrics_snapshot()
            assert snap["pool"]["restarts"] >= 1
            assert snap["pool"]["task_retries"] >= 1
            assert snap["pool"]["degraded_requests"] == 0

            # The pool healed: readiness is back to plain ok and a
            # follow-up sweep flows through the fresh executor.
            assert server.client().healthz() == {"status": "ok"}
            assert server.service.pool.degraded is False
            again = server.client().underlay_energy(
                distance=DISTANCES, **UNDERLAY_ARGS
            )
            assert again["rows"] == payload["rows"]

    def test_exhausted_restart_budget_degrades_but_still_serves(self):
        config = ServiceConfig(
            port=0,
            workers=1,
            coalesce_ms=0.0,
            request_log=False,
            max_pool_restarts=0,
        )
        with ThreadedServer(config) as server:
            server.service.faults.arm_kill_worker(1)
            payload = server.client().underlay_energy(
                distance=DISTANCES, **UNDERLAY_ARGS
            )
            # No budget to restart: the task falls back inline, and the
            # result is still exactly the library answer.
            assert payload["rows"] == _underlay_direct()

            assert server.client().healthz() == {"status": "degraded"}
            snap = server.client().metrics_snapshot()
            assert snap["health"] == "degraded"
            assert snap["pool"]["restarts"] == 0
            assert snap["pool"]["degraded_requests"] >= 1
            assert server.service.pool.degraded is True


class TestDeadline:
    def test_stalled_request_gets_504_without_blocking_the_loop(self):
        config = ServiceConfig(
            port=0,
            workers=0,
            coalesce_ms=0.0,
            request_log=False,
            request_timeout_ms=200.0,
        )
        with ThreadedServer(config) as server:
            server.service.faults.arm_delay(
                5.0, times=1, paths=("/v1/ebar",)
            )
            failures = []

            def stalled():
                try:
                    server.client().ebar(0.001, 2, 2, 2)
                except ServiceClientError as exc:
                    failures.append(exc)

            thread = threading.Thread(target=stalled)
            thread.start()
            time.sleep(0.05)  # the stalled request is now inside its delay

            # A concurrent probe answers while the stall is pending — the
            # injected latency is awaited, not blocking the event loop.
            probe_started = time.monotonic()
            assert server.client().healthz() == {"status": "ok"}
            assert time.monotonic() - probe_started < 2.0

            thread.join(30.0)
            assert len(failures) == 1
            exc = failures[0]
            assert exc.status == 504
            assert exc.payload["error"] == "Gateway Timeout"
            assert exc.payload["status"] == 504
            assert "deadline" in str(exc.payload["detail"])

            snap = server.client().metrics_snapshot()
            assert snap["deadline_timeouts"] == 1

    def test_fast_requests_are_untouched_by_the_deadline(self):
        config = ServiceConfig(
            port=0,
            workers=0,
            coalesce_ms=0.0,
            request_log=False,
            request_timeout_ms=30000.0,
        )
        with ThreadedServer(config) as server:
            payload = server.client().ebar(0.001, 2, 2, 2)
            assert payload["e_bar"] > 0
            assert server.client().metrics_snapshot()["deadline_timeouts"] == 0


class TestAbortedResponse:
    def test_truncated_response_maps_to_transport_failure(self):
        config = ServiceConfig(
            port=0, workers=0, coalesce_ms=0.0, request_log=False
        )
        with ThreadedServer(config) as server:
            server.service.faults.arm_abort(1, paths=("/v1/ebar",))
            with pytest.raises(ServiceClientError) as err:
                server.client().ebar(0.001, 2, 2, 2)
            assert err.value.status == 599
            assert err.value.is_transport_failure
