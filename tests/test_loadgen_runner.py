"""End-to-end loadgen runs: verdicts, fault recovery, bit-identical replay.

Fault events reach the in-process server the way they reach a real binary:
``run_plan`` POSTs each one to ``/chaos/faults`` at its request index.
"""

import json

import pytest

from repro.loadgen import (
    ArrivalSpec,
    ClientPolicy,
    EndpointMix,
    FaultEvent,
    TrafficSpec,
    evaluate,
    load_trace,
    outcome_digest,
    run_plan,
)
from repro.loadgen.cli import main as loadgen_main
from repro.service.config import ServiceConfig
from repro.service.testing import ThreadedServer


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        port=0,
        workers=1,
        request_log=False,
        result_cache=False,
        max_sims=4,
        sim_stall_timeout_ms=2000.0,
        chaos_admin=True,
    )
    with ThreadedServer(config) as srv:
        yield srv


@pytest.fixture(scope="module")
def plain_server():
    """A server started without ``chaos_admin``: it refuses fault events."""
    config = ServiceConfig(port=0, workers=0, request_log=False)
    with ThreadedServer(config) as srv:
        yield srv


def small_spec(**overrides):
    """A quick mixed plan: scalars, a streamed sweep, a streamed simulate."""
    base = dict(
        seed=7,
        duration_s=2.0,
        mix=(
            EndpointMix(kind="ebar", arrival=ArrivalSpec(rate_per_s=5.0)),
            EndpointMix(
                kind="underlay_stream",
                arrival=ArrivalSpec(rate_per_s=2.5),
                sweep_points=4,
            ),
            EndpointMix(
                kind="simulate_stream",
                arrival=ArrivalSpec(rate_per_s=1.0),
                sim_nodes=6,
                sim_duration_s=1.5,
                sim_snapshot_s=0.5,
            ),
        ),
        client=ClientPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=0.2),
        max_concurrency=6,
        time_scale=0.0,  # fire as fast as possible
    )
    base.update(overrides)
    return TrafficSpec(**base)


FAULTS = (
    FaultEvent(
        action="truncate_stream",
        at_request=4,
        after_rows=1,
        path="/v1/underlay/energy",
    ),
    FaultEvent(action="kill_sim_child", at_request=8, after_rows=1),
    FaultEvent(action="drop_client", at_request=12, path="/v1/ebar"),
    FaultEvent(action="kill_worker", at_request=2),
)


class TestCleanRun:
    def test_every_request_ok(self, server):
        trace = run_plan(small_spec(), server.config.host, server.port)
        verdict = evaluate(trace.records)
        assert verdict.passed
        assert verdict.counts["ok"] == verdict.total == len(trace.records)
        assert all(r.retries == 0 for r in trace.records)

    def test_streamed_rows_counted(self, server):
        trace = run_plan(small_spec(), server.config.host, server.port)
        sweep = [r for r in trace.records if r.kind == "underlay_stream"]
        assert sweep
        # 4 data rows plus the terminal done row.
        assert all(r.rows == 5 for r in sweep)


class TestFaultedRun:
    def test_faults_are_absorbed_and_accounted(self, server):
        spec = small_spec(faults=FAULTS)
        trace = run_plan(spec, server.config.host, server.port)
        verdict = evaluate(trace.records)
        assert verdict.passed, verdict.violations
        assert sum(r.retries for r in trace.records) >= 1

    def test_replay_is_bit_identical(self, server):
        spec = small_spec(faults=FAULTS)
        first = run_plan(spec, server.config.host, server.port)
        second = run_plan(spec, server.config.host, server.port)
        assert outcome_digest(first.records) == outcome_digest(second.records)
        assert evaluate(second.records).passed
        # Both runs drew the faults they armed.
        assert sum(r.retries for r in second.records) >= 1

    def test_unretried_truncation_is_accounted_not_violating(self, server):
        spec = TrafficSpec(
            seed=11,
            duration_s=1.5,
            mix=(
                EndpointMix(
                    kind="underlay_stream",
                    arrival=ArrivalSpec(rate_per_s=8.0),
                    sweep_points=4,
                ),
            ),
            client=ClientPolicy(max_attempts=1),
            faults=(
                FaultEvent(action="truncate_stream", at_request=0, after_rows=1),
            ),
            max_concurrency=1,  # deterministic fault → request assignment
            time_scale=0.0,
        )
        trace = run_plan(spec, server.config.host, server.port)
        verdict = evaluate(trace.records)
        assert verdict.passed, verdict.violations
        hit = trace.records[0]
        assert hit.status == 599
        assert hit.truncated and not hit.timed_out
        assert hit.rows == 1  # one complete row before the mid-row cut
        assert verdict.counts["truncated"] == 1

    def test_fault_plan_without_chaos_admin_fails_fast(self, plain_server):
        with pytest.raises(ValueError, match="'kill_worker'.*--chaos-admin"):
            run_plan(small_spec(faults=FAULTS), plain_server.config.host,
                     plain_server.port)
        assert not plain_server.service.faults.armed

    def test_undeliverable_actions_fail_fast(self, server):
        spec = small_spec(faults=(FaultEvent(action="kill_shard"),))
        with pytest.raises(ValueError, match="'kill_shard'.*supervisor"):
            run_plan(spec, server.config.host, server.port)


class TestCli:
    def _write_spec(self, tmp_path, spec):
        from repro.loadgen import traffic_to_mapping

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(traffic_to_mapping(spec)))
        return str(path)

    def test_run_verify_replay(self, server, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path, small_spec())
        trace_path = str(tmp_path / "trace.json")
        assert loadgen_main([
            "run", "--spec", spec_path,
            "--host", server.config.host, "--port", str(server.port),
            "--trace", trace_path,
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

        assert loadgen_main(["verify", "--trace", trace_path]) == 0
        recorded = json.loads(capsys.readouterr().out)
        assert recorded["outcome_digest"] == report["outcome_digest"]

        assert loadgen_main([
            "replay", "--trace", trace_path,
            "--host", server.config.host, "--port", str(server.port),
        ]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed["digest_mismatch"] is False
        assert replayed["recorded_digest"] == report["outcome_digest"]

    def test_replay_detects_divergence(self, server, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path, small_spec())
        trace_path = str(tmp_path / "trace.json")
        assert loadgen_main([
            "run", "--spec", spec_path,
            "--host", server.config.host, "--port", str(server.port),
            "--trace", trace_path,
        ]) == 0
        capsys.readouterr()
        # Forge a diverging record set, re-stamping the self-check digest
        # (replay must flag the outcome mismatch, not the file checksum).
        trace = load_trace(trace_path)
        data = trace.to_mapping()
        data["records"][0]["rows"] += 1
        from repro.loadgen.trace import RequestRecord, outcome_digest as digest_of

        forged = [RequestRecord.from_mapping(r) for r in data["records"]]
        data["outcome_digest"] = digest_of(forged)
        with open(trace_path, "w") as handle:
            json.dump(data, handle)
        assert loadgen_main([
            "replay", "--trace", trace_path,
            "--host", server.config.host, "--port", str(server.port),
        ]) == 1
        replayed = json.loads(capsys.readouterr().out)
        assert replayed["digest_mismatch"] is True

    def test_plan_summary(self, tmp_path, capsys):
        assert loadgen_main(["plan", "--preset", "smoke"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_requests"] > 0
        assert "kill_worker" in summary["faults"]

    def test_refused_fault_event_exits_2(self, plain_server, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path, small_spec(faults=FAULTS))
        assert loadgen_main([
            "run", "--spec", spec_path,
            "--host", plain_server.config.host,
            "--port", str(plain_server.port),
        ]) == 2
        assert "kill_worker" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert loadgen_main(["run", "--port", "1"]) == 2
        assert loadgen_main(["verify", "--trace",
                             str(tmp_path / "missing.json")]) == 2
