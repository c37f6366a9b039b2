"""Streaming fault surface: backpressure hints, stalls, kills, truncation.

Regressions backing the chaos loadgen's verdict contract: every
mid-stream failure must surface as a structured, *timely* signal the
client can classify — never a silent hang, a clean-looking close, or a
backpressure reply without its retry hint.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.config import ServiceConfig
from repro.service.testing import ThreadedServer

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

STALL_TIMEOUT_MS = 1200.0

#: A few hundred milliseconds of child compute — enough that a fault
#: applied at stream start always lands on a live process.
SIM_BODY = {
    "n_nodes": 60,
    "duration_s": 30.0,
    "snapshot_interval_s": 0.5,
    "seed": 3,
    "arena_m": [600.0, 600.0],
}

UNDERLAY_BODY = {
    "p": 1e-3,
    "mt": 2,
    "mr": 2,
    "d": 5.0,
    "distance": [30.0, 30.5, 31.0, 31.5],
    "bandwidth": 10e3,
}


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        port=0,
        workers=0,
        request_log=False,
        result_cache=False,
        max_sims=1,
        sim_stall_timeout_ms=STALL_TIMEOUT_MS,
    )
    with ThreadedServer(config) as srv:
        yield srv


def wait_for_idle(server, deadline_s=10.0):
    """Block until the (single) simulate slot has been released."""
    start = time.monotonic()
    while server.service.sims.active > 0:
        if time.monotonic() - start > deadline_s:
            raise AssertionError("simulate slot was never released")
        time.sleep(0.02)


class TestSimulateBackpressureHint:
    def test_second_stream_429_has_header_and_body_hints(self, server):
        client = server.client()
        stream = client.simulate_stream(SIM_BODY)
        try:
            next(stream)  # stream committed: the only slot is now taken
            with pytest.raises(ServiceClientError) as excinfo:
                client.simulate_stream(dict(SIM_BODY, seed=4))
            err = excinfo.value
            assert err.status == 429
            hint = server.config.retry_after_s
            assert err.retry_after_s == hint  # the Retry-After header
            assert err.payload["retry_after_s"] == hint  # mirrored in-body
            assert err.payload["status"] == 429
        finally:
            stream.close()
        wait_for_idle(server)


class TestSimChildFaults:
    def test_stall_surfaces_within_the_deadline(self, server):
        server.service.faults.arm_stall_sim(1, after_rows=0)
        client = server.client()
        start = time.monotonic()
        rows = list(client.simulate_stream(SIM_BODY))
        elapsed = time.monotonic() - start
        wait_for_idle(server)
        tail = rows[-1]
        assert tail["row"] == "error"
        assert tail["status"] == 504
        assert "stall" in tail["detail"]
        # A terminal error row, not a hang: the stream ends promptly once
        # the stall deadline fires (slack covers poll granularity and CI).
        assert elapsed < STALL_TIMEOUT_MS / 1000.0 + 8.0

    def test_killed_child_surfaces_error_row(self, server):
        server.service.faults.arm_kill_sim_child(1, after_rows=0)
        client = server.client()
        rows = list(client.simulate_stream(SIM_BODY))
        wait_for_idle(server)
        tail = rows[-1]
        assert tail["row"] == "error"
        assert tail["status"] == 500


class TestTransportFaults:
    def test_truncated_sweep_raises_599(self, server):
        server.service.faults.arm_truncate_stream(
            1, after_rows=1, paths=("/v1/underlay/energy",)
        )
        client = server.client()
        stream = client.request_stream(
            "POST", "/v1/underlay/energy", UNDERLAY_BODY
        )
        with pytest.raises(ServiceClientError) as excinfo:
            list(stream)
        assert excinfo.value.status == 599
        assert "truncat" in str(excinfo.value)

    def test_truncation_cuts_mid_chunk_after_exactly_n_rows_across_segments(self):
        """A cut that lands inside the sweep's one 7-line item keeps exactly
        the first N complete row chunks, then half of the next one."""
        import socket

        body = json.dumps(dict(UNDERLAY_BODY, distance=[30.0 + i for i in range(7)]))
        raw_request = (
            "POST /v1/underlay/energy HTTP/1.1\r\nAccept: application/x-ndjson\r\n"
            f"Content-Length: {len(body)}\r\n\r\n{body}"
        ).encode("latin-1")

        def exchange(port):
            with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
                sock.sendall(raw_request)
                parts = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        return b"".join(parts)
                    parts.append(data)

        config = ServiceConfig(port=0, workers=0, request_log=False)
        with ThreadedServer(config) as srv:
            whole = exchange(srv.port)
            srv.service.faults.arm_truncate_stream(1, after_rows=4)
            cut = exchange(srv.port)
        head, _, chunks = whole.partition(b"\r\n\r\n")
        frames = chunks.split(b"\r\n")  # size, line, size, line, ..., "0", "", ""
        rows = [frames[i] + b"\r\n" + frames[i + 1] + b"\r\n" for i in range(0, 14, 2)]
        fifth = rows[4]
        assert cut == head + b"\r\n\r\n" + b"".join(rows[:4]) + fifth[: len(fifth) // 2]

    def test_dropped_connection_raises_599(self, server):
        server.service.faults.arm_drop_client(
            1, paths=("/v1/underlay/energy",)
        )
        client = server.client()
        with pytest.raises(ServiceClientError) as excinfo:
            list(
                client.request_stream(
                    "POST", "/v1/underlay/energy", UNDERLAY_BODY
                )
            )
        assert excinfo.value.status == 599


class TestStallKeepsTheBinaryUp:
    def test_stall_fault_does_not_drain_the_real_server(self):
        """A stalled simulate child must not shut its server down.

        Only the real binary installs the asyncio signal wakeup fd a forked
        child inherits (the in-process harness runs without signal
        handlers).  A child stopped before it detaches from that fd must
        be ended with SIGKILL: a SIGTERM would run its inherited handler,
        which writes the signal into the pipe it shares with the server,
        and the server would drain and exit 0.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0", "--workers", "0",
                "--chaos-admin", "--sim-stall-timeout-ms", "500",
                "--no-request-log", "--quiet",
            ],
            stdout=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        try:
            announced = json.loads(proc.stdout.readline())
            client = ServiceClient(
                announced["host"], announced["port"], timeout_s=30.0
            )
            client.request("POST", "/chaos/faults", {"action": "stall_sim"})
            rows = list(client.simulate_stream(dict(SIM_BODY, n_nodes=8)))
            assert rows[-1]["row"] == "error"
            assert rows[-1]["status"] == 504
            time.sleep(1.0)  # a self-inflicted drain starts within this
            assert proc.poll() is None
            assert client.healthz() == {"status": "ok"}
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
