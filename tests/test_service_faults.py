"""FaultInjector: inert defaults, arming, count decrement, /chaos/faults."""

import http.client
import json

import pytest

from repro.service.client import ServiceClientError
from repro.service.config import ServiceConfig
from repro.service.faults import CHAOS_FAULTS_PATH, FaultInjector, FaultRequest
from repro.service.testing import ThreadedServer

EBAR_BODY = {"p": 0.01, "b": 2, "mt": 2, "mr": 2, "solver": "table"}


def post_raw(port, path, raw, method="POST"):
    """One request with a verbatim body; returns (status, JSON payload)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            method, path, body=raw, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def post_fault(port, **event):
    return post_raw(port, CHAOS_FAULTS_PATH, json.dumps(event).encode())


class TestInertDefault:
    def test_fresh_injector_is_unarmed(self):
        faults = FaultInjector()
        assert not faults.armed

    def test_hooks_are_noops_when_unarmed(self):
        faults = FaultInjector()
        assert faults.request_delay_s("/v1/ebar") == 0.0
        assert faults.take_abort("/v1/ebar") is False
        assert faults.maybe_kill_worker(object()) is False


class TestArm:
    def test_full_plan_arms_everything(self):
        faults = FaultInjector()
        faults.arm(FaultRequest("kill_worker", count=2))
        faults.arm(FaultRequest("delay", count=2, delay_ms=250.0))
        faults.arm(FaultRequest("abort", path="/v1/underlay/energy"))
        assert faults.armed
        assert faults.request_delay_s("/x") == 0.25
        assert faults.request_delay_s("/y") == 0.25
        assert faults.request_delay_s("/z") == 0.0
        assert faults.take_abort("/v1/ebar") is False  # path miss
        assert faults.take_abort("/v1/underlay/energy") is True
        assert faults.armed  # kill_worker waits for a worker process

    def test_stream_plan_arms_stream_faults(self):
        faults = FaultInjector()
        faults.arm(FaultRequest("kill_sim_child", after_rows=2))
        faults.arm(FaultRequest("truncate_stream", after_rows=3))
        faults.arm(FaultRequest("drop_client", path="/v1/simulate"))
        assert faults.armed
        assert faults.take_sim_fault() == ("kill", 2)
        assert faults.take_truncate_stream("/v1/simulate") == 3
        assert faults.take_drop_client("/v1/ebar") is False  # path miss
        assert faults.take_drop_client("/v1/simulate") is True
        assert not faults.armed

    def test_stall_plan_arms_stall(self):
        faults = FaultInjector()
        faults.arm(FaultRequest("stall_sim", after_rows=1))
        assert faults.take_sim_fault() == ("stall", 1)
        assert faults.take_sim_fault() is None

    def test_delay_defaults_to_one_shot(self):
        faults = FaultInjector()
        faults.arm(FaultRequest("delay", delay_ms=100.0))
        assert faults.request_delay_s("/x") == 0.1
        assert faults.request_delay_s("/x") == 0.0


#: Bodies ``POST /chaos/faults`` must refuse with 400, keyed by what is wrong.
MALFORMED_EVENTS = {
    "not json": b"{not json",
    "a string": b'"just a string"',
    "a list": b"[1, 2]",
    "missing action": b'{"count": 1}',
    "unknown key": b'{"action": "abort", "surprise": 1}',
    "unknown action": b'{"action": "bogus"}',
    "bool count": b'{"action": "kill_worker", "count": true}',
    "string count": b'{"action": "kill_worker", "count": "one"}',
    "yes as count": b'{"action": "kill_sim_child", "count": "yes"}',
    "negative count": b'{"action": "kill_worker", "count": -1}',
    "fractional count": b'{"action": "truncate_stream", "count": 1.5}',
    "fractional delay count": b'{"action": "delay", "delay_ms": 10, "count": 1.5}',
    "negative after_rows": b'{"action": "stall_sim", "after_rows": -1}',
    "non-numeric delay_ms": b'{"action": "delay", "delay_ms": "fast"}',
    "zero delay_ms": b'{"action": "delay", "delay_ms": 0}',
    "non-string path": b'{"action": "abort", "path": 1}',
    "list path": b'{"action": "abort", "path": ["/v1/ebar"]}',
}


@pytest.fixture(scope="module")
def chaos_server():
    config = ServiceConfig(
        port=0, workers=0, coalesce_ms=0.0, request_log=False, chaos_admin=True
    )
    with ThreadedServer(config) as srv:
        yield srv


class TestChaosRoute:
    def test_post_arms_the_live_injector(self, chaos_server):
        client = chaos_server.client()
        served = client.metrics_snapshot()["requests_total"]
        status, payload = post_fault(
            chaos_server.port, action="abort", path="/v1/ebar"
        )
        assert status == 200
        assert payload["fault"] == {
            "action": "abort",
            "count": 1,
            "after_rows": 0,
            "path": "/v1/ebar",
            "delay_ms": 0.0,
        }
        # Chaos requests are not service traffic: the POST is not counted,
        # only the second metrics read is.
        assert client.metrics_snapshot()["requests_total"] == served + 1
        assert chaos_server.service.faults.take_abort("/v1/ebar") is True
        assert not chaos_server.service.faults.armed

    @pytest.mark.parametrize("raw", MALFORMED_EVENTS.values(), ids=MALFORMED_EVENTS)
    def test_malformed_events_answer_400(self, chaos_server, raw):
        status, payload = post_raw(chaos_server.port, CHAOS_FAULTS_PATH, raw)
        assert status == 400
        assert payload["status"] == 400
        assert payload["detail"]
        assert not chaos_server.service.faults.armed

    def test_kill_shard_names_the_supervisor(self, chaos_server):
        status, payload = post_fault(chaos_server.port, action="kill_shard")
        assert 400 <= status < 500
        assert "supervisor" in payload["detail"]
        assert not chaos_server.service.faults.armed

    def test_unknown_chaos_path_and_method(self, chaos_server):
        status, _ = post_raw(chaos_server.port, "/chaos/unknown", b"{}")
        assert status == 404
        status, _ = post_raw(chaos_server.port, CHAOS_FAULTS_PATH, None, "GET")
        assert status == 405

    @pytest.mark.parametrize("action", ["drop_client", "abort", "delay"])
    def test_unscoped_fault_skips_chaos_requests(self, chaos_server, action):
        faults = chaos_server.service.faults
        event = {"action": action, "delay_ms": 50.0}
        assert post_fault(chaos_server.port, **event)[0] == 200
        # The next /chaos/faults request gets its whole answer and leaves
        # the armed fault for the next service request to draw.
        status, payload = post_fault(chaos_server.port, action="bogus")
        assert (status, payload["status"]) == (400, 400)
        assert faults.armed
        client = chaos_server.client()
        if action == "delay":
            client.ebar(**EBAR_BODY)
        else:
            with pytest.raises(ServiceClientError) as excinfo:
                client.request("POST", "/v1/ebar", EBAR_BODY)
            assert excinfo.value.status == 599
        assert not faults.armed

    def test_forbidden_without_chaos_admin(self):
        config = ServiceConfig(port=0, workers=0, request_log=False)
        with ThreadedServer(config) as server:
            status, payload = post_fault(server.port, action="abort")
            assert status == 403
            assert "--chaos-admin" in payload["detail"]
            assert not server.service.faults.armed


class TestCounts:
    def test_delay_consumes_one_count_per_matching_request(self):
        faults = FaultInjector()
        faults.arm_delay(0.5, times=2)
        assert faults.request_delay_s("/a") == 0.5
        assert faults.request_delay_s("/b") == 0.5
        assert faults.request_delay_s("/c") == 0.0
        assert not faults.armed

    def test_path_mismatch_does_not_consume(self):
        faults = FaultInjector()
        faults.arm_delay(0.5, times=1, paths=("/v1/ebar",))
        assert faults.request_delay_s("/healthz") == 0.0
        assert faults.request_delay_s("/v1/ebar") == 0.5

    def test_abort_consumes_one_count(self):
        faults = FaultInjector()
        faults.arm_abort(1)
        assert faults.take_abort("/x") is True
        assert faults.take_abort("/x") is False

    def test_kill_without_processes_does_not_consume(self):
        faults = FaultInjector()
        faults.arm_kill_worker(1)
        assert faults.maybe_kill_worker(object()) is False
        assert faults.armed  # the count is still pending

    def test_negative_counts_rejected(self):
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.arm_kill_worker(-1)
        with pytest.raises(ValueError):
            faults.arm_delay(-0.1)
        with pytest.raises(ValueError):
            faults.arm_abort(-2)
        with pytest.raises(ValueError):
            faults.arm_truncate_stream(1, after_rows=-1)
        with pytest.raises(ValueError):
            faults.arm_stall_sim(-1)

    def test_kill_beats_stall_when_both_armed(self):
        faults = FaultInjector()
        faults.arm_kill_sim_child(1, after_rows=4)
        faults.arm_stall_sim(1, after_rows=2)
        assert faults.take_sim_fault() == ("kill", 4)
        assert faults.take_sim_fault() == ("stall", 2)
        assert faults.take_sim_fault() is None

    def test_truncate_respects_paths(self):
        faults = FaultInjector()
        faults.arm_truncate_stream(1, after_rows=2, paths=("/v1/simulate",))
        assert faults.take_truncate_stream("/v1/ebar") is None  # path miss
        assert faults.take_truncate_stream("/v1/simulate") == 2
        assert faults.take_truncate_stream("/v1/simulate") is None

    def test_drop_client_consumes_one_count_per_request(self):
        faults = FaultInjector()
        faults.arm_drop_client(2)
        assert faults.take_drop_client("/a") is True
        assert faults.take_drop_client("/b") is True
        assert faults.take_drop_client("/c") is False
        assert not faults.armed
