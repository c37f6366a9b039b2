"""RetryPolicy + CircuitBreaker on streaming endpoints.

The streaming analogue of the buffered retry tests: a truncated stream
is a *transport* failure (it trips the breaker and is retryable), a
terminal error row is a *protocol* failure (the transport proved
healthy), and because every streamed endpoint is a pure function of its
body, a retried sweep replays byte-identically — served from the
persistent result cache when one is configured.
"""

import json
import time

import pytest

from repro.service.client import (
    CircuitOpenError,
    ServiceClient,
    ServiceClientError,
)
from repro.service.config import ServiceConfig
from repro.service.retry import CircuitBreaker, RetryPolicy
from repro.service.testing import ThreadedServer

SIM_BODY = {
    "n_nodes": 60,
    "duration_s": 30.0,
    "snapshot_interval_s": 0.5,
    "seed": 9,
    "arena_m": [600.0, 600.0],
}

UNDERLAY_BODY = {
    "p": 1e-3,
    "mt": 2,
    "mr": 2,
    "d": 5.0,
    "distance": [30.0, 30.5, 31.0, 31.5, 32.0, 32.5],
    "bandwidth": 10e3,
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """Result cache forced on (CI exports REPRO_NO_CACHE=1), in tmp dirs."""
    config = ServiceConfig(
        port=0,
        workers=0,
        request_log=False,
        result_cache=True,
        result_cache_dir=str(tmp_path_factory.mktemp("rescache")),
        max_sims=1,
        sim_stall_timeout_ms=5000.0,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_NO_CACHE", raising=False)
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("table-cache")))
        with ThreadedServer(config) as srv:
            yield srv


def wait_for_idle(server, deadline_s=10.0):
    start = time.monotonic()
    while server.service.sims.active > 0:
        if time.monotonic() - start > deadline_s:
            raise AssertionError("simulate slot was never released")
        time.sleep(0.02)


class TestBreakerOnStreams:
    def test_truncation_counts_as_transport_failure(self, server):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)
        client = ServiceClient(
            server.config.host, server.port, breaker=breaker
        )
        server.service.faults.arm_truncate_stream(
            1, after_rows=1, paths=("/v1/underlay/energy",)
        )
        with pytest.raises(ServiceClientError) as excinfo:
            list(
                client.request_stream(
                    "POST", "/v1/underlay/energy", UNDERLAY_BODY
                )
            )
        assert excinfo.value.status == 599
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.request_stream(
                "POST", "/v1/underlay/energy", UNDERLAY_BODY
            )

    def test_error_row_close_is_not_a_transport_failure(self, server):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)
        client = ServiceClient(
            server.config.host, server.port, breaker=breaker
        )
        server.service.faults.arm_kill_sim_child(1, after_rows=0)
        rows = list(client.request_stream("POST", "/v1/simulate", SIM_BODY))
        wait_for_idle(server)
        assert rows[-1]["row"] == "error"
        # The server delivered a structured failure over a healthy
        # transport; the breaker must stay closed.
        assert breaker.state == "closed"


class TestStreamRowsRetry:
    def test_truncated_stream_retries_byte_identically_from_cache(
        self, server
    ):
        baseline = server.client().stream_rows(
            "POST", "/v1/underlay/energy", UNDERLAY_BODY
        )
        assert baseline[-1] == {"done": True, "count": len(baseline) - 1}
        hits_before = server.service.metrics.snapshot()["result_cache"]["hits"]

        sleeps = []
        client = ServiceClient(
            server.config.host,
            server.port,
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.01, max_delay_s=0.02, rng=7
            ),
            sleep=sleeps.append,
        )
        server.service.faults.arm_truncate_stream(
            1, after_rows=1, paths=("/v1/underlay/energy",)
        )
        retried = client.stream_rows(
            "POST", "/v1/underlay/energy", UNDERLAY_BODY
        )
        assert len(sleeps) == 1  # one retry absorbed the truncation
        assert json.dumps(retried, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )
        hits_after = server.service.metrics.snapshot()["result_cache"]["hits"]
        assert hits_after > hits_before

    def test_midstream_error_row_status_raises_through_stream_rows(
        self, server
    ):
        client = server.client()
        server.service.faults.arm_kill_sim_child(1, after_rows=0)
        with pytest.raises(ServiceClientError) as excinfo:
            client.stream_rows("POST", "/v1/simulate", SIM_BODY)
        wait_for_idle(server)
        assert excinfo.value.status == 500
        assert excinfo.value.payload["row"] == "error"

    def test_429_retry_honours_the_retry_after_hint(self, server):
        sims = server.service.sims
        sims.acquire()  # hold the only slot: the first attempt gets 429
        released = []

        def sleeper(delay_s):
            released.append(delay_s)
            sims.release()

        client = ServiceClient(
            server.config.host,
            server.port,
            retry=RetryPolicy(max_attempts=2, rng=3),
            sleep=sleeper,
        )
        rows = client.stream_rows("POST", "/v1/simulate", SIM_BODY)
        wait_for_idle(server)
        assert rows[-1]["row"] == "summary"
        # The server's hint overrides the jittered backoff exactly.
        assert released == [server.config.retry_after_s]
