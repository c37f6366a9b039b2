"""`/v1/simulate` tests: buffered + streamed runs, replay, backpressure."""

import time

import pytest

from repro.scenario.runtime import ScenarioRuntime
from repro.scenario.spec import scenario_from_mapping
from repro.service import simulate
from repro.service.client import ServiceClientError
from repro.service.config import ServiceConfig
from repro.service.simulate import SimulationRunner, parse_simulate_request
from repro.service.testing import ThreadedServer

SCENARIO = {
    "n_nodes": 25,
    "arena_m": [300.0, 300.0],
    "duration_s": 15.0,
    "seed": 21,
    "snapshot_interval_s": 5.0,
    "churn": {"leave_rate_per_node_s": 0.005, "join_rate_per_s": 0.2},
}


#: Tens of seconds of compute (~28 s on a 2-vCPU host), far past the
#: 1.5 s deadline below, with a row every ~0.1 s.
LONG_RUN = {
    "n_nodes": 4,
    "duration_s": 4e5,
    "snapshot_interval_s": 1000.0,
    "seed": 1,
}


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        port=0, workers=0, request_log=False, result_cache=False, max_sims=1
    )
    with ThreadedServer(config) as srv:
        yield srv


def wait_for_free_slot(server, deadline_s=60.0):
    """Block until no simulation holds a slot (an abandoned stream frees
    its slot once the server notices the disconnect)."""
    start = time.monotonic()
    while server.service.sims.active > 0:
        assert time.monotonic() - start < deadline_s, "slot never released"
        time.sleep(0.02)


class TestBuffered:
    def test_buffered_simulate(self, server):
        client = server.client(timeout_s=120.0)
        result = client.simulate(SCENARIO)
        assert result["count"] == 3
        assert len(result["rows"]) == 3
        assert result["summary"]["row"] == "summary"
        assert result["summary"]["digest"]

    def test_buffered_matches_library(self, server):
        client = server.client(timeout_s=120.0)
        result = client.simulate(SCENARIO)
        rows = list(ScenarioRuntime(scenario_from_mapping(SCENARIO)).run())
        assert result["rows"] == rows[:-1]
        assert result["summary"] == rows[-1]

    def test_bad_scenario_is_400(self, server):
        client = server.client()
        with pytest.raises(ServiceClientError) as err:
            client.simulate({"warp_factor": 9})
        assert err.value.status == 400

    def test_node_cap_is_400(self, server):
        client = server.client()
        with pytest.raises(ServiceClientError) as err:
            client.simulate({"n_nodes": simulate.MAX_SIM_NODES + 1})
        assert err.value.status == 400

    def test_64_bit_seed_is_served(self, server):
        client = server.client(timeout_s=120.0)
        result = client.simulate({**SCENARIO, "seed": 2**63 - 1})
        assert result["count"] == 3
        assert result["summary"]["digest"]

    @pytest.mark.parametrize(
        "error,status",
        [(ValueError, 400), (TypeError, 400), (OverflowError, 400), (RuntimeError, 500)],
    )
    def test_failed_run_keeps_its_status(self, server, monkeypatch, error, status):
        """The forked child reports which kind of exception ended the run:
        the buffered answer and the streamed error row carry its status."""

        def broken(spec):
            raise error("the run cannot start")

        monkeypatch.setattr(simulate, "ScenarioRuntime", broken)
        client = server.client(timeout_s=120.0)
        with pytest.raises(ServiceClientError) as err:
            client.simulate(SCENARIO)
        assert err.value.status == status
        assert "the run cannot start" in err.value.payload["detail"]
        rows = list(client.simulate_stream(SCENARIO))
        assert rows[-1]["row"] == "error"
        assert rows[-1]["status"] == status
        wait_for_free_slot(server, deadline_s=5.0)


class TestBufferedDeadline:
    def test_deadline_frees_the_run_and_the_pool(self):
        """A buffered run past the request deadline answers 504, its child
        is killed and its slot released, and the pool stays free."""
        config = ServiceConfig(
            port=0,
            workers=1,
            request_log=False,
            result_cache=False,
            request_timeout_ms=1500.0,
        )
        with ThreadedServer(config) as srv:
            client = srv.client(timeout_s=60.0)
            with pytest.raises(ServiceClientError) as err:
                client.simulate(LONG_RUN)
            assert err.value.status == 504
            wait_for_free_slot(srv, deadline_s=5.0)
            sweep = client.underlay_energy(
                p=1e-3, mt=2, mr=2, d=5.0, distance=[30.0, 31.0], bandwidth=10e3
            )
            assert sweep["count"] == 2


class TestStreamed:
    def test_stream_matches_buffered(self, server):
        client = server.client(timeout_s=120.0)
        buffered = client.simulate(SCENARIO)
        rows = list(client.simulate_stream(SCENARIO))
        assert rows[:-1] == buffered["rows"]
        assert rows[-1] == buffered["summary"]

    def test_streamed_replay_bit_identical(self, server):
        client = server.client(timeout_s=120.0)
        first = list(client.simulate_stream(SCENARIO))
        second = list(client.simulate_stream(SCENARIO))
        assert first == second

    def test_stream_bad_scenario_is_400(self, server):
        client = server.client()
        with pytest.raises(ServiceClientError) as err:
            list(client.simulate_stream({"n_nodes": -3}))
        assert err.value.status == 400

    def test_stream_counts_in_metrics(self, server):
        client = server.client(timeout_s=120.0)
        before = client.metrics_snapshot()["streams"]
        n = len(list(client.simulate_stream(SCENARIO)))
        after = client.metrics_snapshot()["streams"]
        assert after["opened"] == before["opened"] + 1
        assert after["rows"] == before["rows"] + n


class TestBackpressure:
    def test_second_stream_gets_429(self, server):
        # max_sims=1: hold one stream open mid-flight, then ask for another.
        client = server.client(timeout_s=120.0)
        slow = dict(SCENARIO, duration_s=60.0, n_nodes=60)
        stream = client.request_stream("POST", "/v1/simulate", slow)
        next(stream)  # the stream is committed and its slot is held
        try:
            with pytest.raises(ServiceClientError) as err:
                list(client.simulate_stream(SCENARIO))
            assert err.value.status == 429
            assert err.value.retry_after_s is not None
        finally:
            stream.close()

    def test_buffered_run_gets_429_while_a_stream_holds_the_slot(self, server):
        wait_for_free_slot(server)
        client = server.client(timeout_s=120.0)
        slow = dict(SCENARIO, duration_s=60.0, n_nodes=60)
        stream = client.request_stream("POST", "/v1/simulate", slow)
        next(stream)  # the stream is committed and its slot is held
        try:
            with pytest.raises(ServiceClientError) as err:
                client.simulate(SCENARIO)
            assert err.value.status == 429
            assert err.value.retry_after_s == server.config.retry_after_s
        finally:
            stream.close()

    def test_slot_released_after_close(self, server):
        # The abandoned stream's slot frees once the server notices the
        # disconnect (on its next row write) — poll briefly for that.
        import time

        client = server.client(timeout_s=120.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                assert list(client.simulate_stream(SCENARIO))
                return
            except ServiceClientError as err:
                assert err.status == 429
                assert time.monotonic() < deadline, "slot never released"
                time.sleep(0.2)


class TestRunnerUnit:
    def test_acquire_release(self):
        runner = SimulationRunner(max_sims=2)
        runner.acquire()
        runner.acquire()
        with pytest.raises(Exception):
            runner.acquire()
        runner.release()
        runner.acquire()
        assert runner.active == 2

    def test_release_never_negative(self):
        runner = SimulationRunner(max_sims=1)
        runner.release()
        assert runner.active == 0

    def test_bad_max_sims(self):
        with pytest.raises(ValueError):
            SimulationRunner(max_sims=0)

    def test_parse_rejects_non_object(self):
        from repro.service.errors import BadRequestError

        with pytest.raises(BadRequestError):
            parse_simulate_request([1, 2])
