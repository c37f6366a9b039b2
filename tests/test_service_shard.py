"""Shard supervisor: shard argv, fleet boot, aggregation, replacement, chaos."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import (
    LatencyHistogram,
    RestartBudget,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    aggregate_snapshots,
    work,
)
from repro.service.cli import _build_parser, build_config
from repro.service.shard import ShardSupervisor
from repro.service.schemas import UnderlayRequest

DISTANCES = [2.0, 4.0, 8.0]
UNDERLAY_ARGS = dict(p=1e-3, mt=2, mr=2, d=5.0, bandwidth=10e3)

BOOT_TIMEOUT_S = 120.0
RECOVERY_TIMEOUT_S = 60.0


def _underlay_direct():
    return work.underlay_rows(
        UnderlayRequest(distances=tuple(DISTANCES), **UNDERLAY_ARGS)
    )


def _wait_for_cache_entries(root, count):
    """Block until ``count`` result-cache entries are published under ``root``.

    A shard publishes an entry just after its answer goes out, so a repeat
    sent on the heels of that answer can reach the other shard first.
    """
    deadline = time.monotonic() + RECOVERY_TIMEOUT_S
    while len(list(root.rglob("*.json"))) < count:
        assert time.monotonic() < deadline, f"no result-cache entry under {root}"
        time.sleep(0.01)


# --------------------------------------------------------------------- #
# Unit: RestartBudget and metrics aggregation                           #
# --------------------------------------------------------------------- #


class TestRestartBudget:
    def test_spend_until_exhausted(self):
        budget = RestartBudget(2)
        assert (budget.left, budget.used, budget.exhausted) == (2, 0, False)
        assert budget.spend() is True
        assert budget.spend() is True
        assert budget.exhausted is True
        assert budget.spend() is False
        assert (budget.left, budget.used) == (0, 2)

    def test_zero_budget_starts_exhausted(self):
        budget = RestartBudget(0)
        assert budget.exhausted is True
        assert budget.spend() is False


class TestAggregateSnapshots:
    @staticmethod
    def _snapshot(latencies_ms, **over):
        histogram = LatencyHistogram()
        for value in latencies_ms:
            histogram.observe(value)
        snap = {
            "requests_total": len(latencies_ms),
            "responses_by_status": {"200": len(latencies_ms)},
            "latency_ms": histogram.snapshot(),
            "coalesce": {
                "batches": 2,
                "requests": 4,
                "mean_batch_size": 2.0,
                "max_batch_size": 3,
            },
            "result_cache": {"hits": 1, "misses": 2},
            "pool": {"depth": 0, "peak_depth": 1},
            "health": "ok",
        }
        snap.update(over)
        return snap

    def test_counters_sum_and_peaks_take_the_max(self):
        merged = aggregate_snapshots(
            [
                self._snapshot([1.0, 3.0]),
                self._snapshot(
                    [10.0],
                    coalesce={
                        "batches": 1,
                        "requests": 3,
                        "mean_batch_size": 3.0,
                        "max_batch_size": 5,
                    },
                    pool={"depth": 1, "peak_depth": 4},
                ),
            ]
        )
        assert merged["requests_total"] == 3
        assert merged["responses_by_status"] == {"200": 3}
        assert merged["coalesce"]["batches"] == 3
        assert merged["coalesce"]["requests"] == 7
        assert merged["coalesce"]["max_batch_size"] == 5
        assert merged["coalesce"]["mean_batch_size"] == pytest.approx(7 / 3)
        assert merged["pool"]["depth"] == 1
        assert merged["pool"]["peak_depth"] == 4
        assert merged["result_cache"] == {"hits": 2, "misses": 4}
        assert "health" not in merged

    def test_latency_histograms_merge_bucketwise(self):
        # Shard snapshots arrive as JSON served with sort_keys=True.
        merged = aggregate_snapshots(
            [
                json.loads(json.dumps(self._snapshot(latencies), sort_keys=True))
                for latencies in ([1.0, 1.0], [100.0, 100.0])
            ]
        )
        latency = merged["latency_ms"]
        assert latency["count"] == 4
        assert latency["sum_ms"] == pytest.approx(202.0)
        assert latency["max_ms"] == pytest.approx(100.0)
        assert latency["buckets"]["le_1"] == 2
        assert latency["buckets"]["le_100"] == 2
        # Half the mass sits at ~1 ms, half at ~100 ms: p95 lands high.
        assert latency["p95_ms"] > 50.0
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert latency["p99_ms"] <= latency["max_ms"]

    def test_empty_input(self):
        assert aggregate_snapshots([]) == {}


#: Two configs with every ServiceConfig field off its default.
OFF_DEFAULT_CONFIGS = [
    dict(
        host="localhost", port=9001, workers=3, coalesce_ms=1.5,
        queue_limit=9, seed=11, drain_timeout_s=2.5, request_log=False,
        request_timeout_ms=750.0, max_pool_restarts=1, retry_after_s=2.0,
        reuse_port=True, admin_port=9002, shard_index=4, result_cache=True,
        result_cache_dir="shared-results", max_sims=4,
        sim_stall_timeout_ms=None, chaos_admin=True,
    ),
    dict(
        host="0.0.0.0", port=9003, workers=0, coalesce_ms=0.25,
        queue_limit=1, seed=0, drain_timeout_s=0.5, request_log=False,
        request_timeout_ms=0.125, max_pool_restarts=0, retry_after_s=0.5,
        reuse_port=True, admin_port=0, shard_index=0, result_cache=True,
        result_cache_dir="other-results", max_sims=1,
        sim_stall_timeout_ms=2500.0, chaos_admin=True,
    ),
]


class TestShardArgv:
    @pytest.mark.parametrize("fields", OFF_DEFAULT_CONFIGS)
    def test_every_config_field_reaches_the_shard(self, fields):
        """The hand-written shard argv round-trips every config field, but
        the ones the supervisor sets per shard."""
        defaults = ServiceConfig()
        assert set(fields) == set(dataclasses.asdict(defaults))
        assert all(value != getattr(defaults, name) for name, value in fields.items())
        config = ServiceConfig(**fields)
        supervisor = ShardSupervisor(config, shards=3)
        supervisor._port = 43210
        index = 2
        argv = supervisor._child_argv(index)
        assert argv[:3] == [sys.executable, "-m", "repro.service"]
        child = build_config(_build_parser().parse_args(argv[3:]))
        assert child == dataclasses.replace(
            config,
            port=43210,
            admin_port=0,
            shard_index=index,
            seed=config.seed + index,
            reuse_port=True,
        )


# --------------------------------------------------------------------- #
# End-to-end fleets (CLI subprocess)                                    #
# --------------------------------------------------------------------- #


class Fleet:
    """A ``repro-service --shards N`` subprocess plus its announce info."""

    def __init__(self, tmp_path, *extra_args, shards=2):
        env = dict(os.environ)
        env.pop("REPRO_NO_CACHE", None)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "table-cache")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--shards",
                str(shards),
                "--port",
                "0",
                "--workers",
                "0",
                "--no-request-log",
                "--quiet",
                "--result-cache-dir",
                str(tmp_path / "results"),
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.announce = self._read_announce()
        self.port = self.announce["port"]
        self.admin_port = self.announce["admin_port"]

    def _read_announce(self):
        box = {}

        def run():
            assert self.proc.stdout is not None
            box["line"] = self.proc.stdout.readline()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(BOOT_TIMEOUT_S)
        line = box.get("line")
        if not line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("fleet did not announce in time")
        return json.loads(line)

    def client(self):
        return ServiceClient("127.0.0.1", self.port, timeout_s=30.0)

    def admin(self):
        return ServiceClient("127.0.0.1", self.admin_port, timeout_s=30.0)

    def wait_healthy(self, min_restarts=0):
        deadline = time.monotonic() + RECOVERY_TIMEOUT_S
        last = None
        while time.monotonic() < deadline:
            try:
                last = self.admin().healthz()
            except Exception:
                last = None
            if (
                last is not None
                and last["status"] == "ok"
                and last["shards"]["restarts"] >= min_restarts
            ):
                return last
            time.sleep(0.25)
        raise AssertionError(f"fleet never became healthy; last={last!r}")

    def stop(self, expect_code=0):
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=60)
        assert code == expect_code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


@pytest.fixture
def fleet(tmp_path):
    fleets = []

    def factory(*args, **kwargs):
        built = Fleet(tmp_path, *args, **kwargs)
        fleets.append(built)
        return built

    yield factory
    for built in fleets:
        built.kill()


def _pid_gone(pid):
    """True once ``pid`` no longer runs (absent, or a zombie left for its
    new parent to reap)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _listening(port):
    """Whether any TCP socket of this network namespace listens on ``port``
    (``/proc/net/tcp*``: state ``0A`` is LISTEN)."""
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        with open(table) as rows:
            for row in list(rows)[1:]:
                fields = row.split()
                if int(fields[1].rsplit(":", 1)[1], 16) == port and fields[3] == "0A":
                    return True
    return False


class TestShardedFleet:
    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux-only"
    )
    def test_shards_die_with_a_sigkilled_supervisor(self, fleet):
        running = fleet()
        running.wait_healthy()
        per_shard = running.admin().metrics_snapshot()["shards"]["per_shard"]
        pids = [entry["pid"] for entry in per_shard]
        assert len(pids) == 2 and not any(_pid_gone(pid) for pid in pids)
        try:
            running.kill()
            # A dead shard's leader reads as a zombie while its other
            # threads still exit and close the listener, so wait for both.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and (
                not all(_pid_gone(pid) for pid in pids) or _listening(running.port)
            ):
                time.sleep(0.05)
            assert all(_pid_gone(pid) for pid in pids)
            assert not _listening(running.port)
        finally:
            for pid in pids:  # never leak a shard, even on failure
                if not _pid_gone(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_fleet_serves_aggregates_and_shares_the_result_cache(
        self, fleet, tmp_path
    ):
        running = fleet()
        assert running.announce["shards"] == 2
        running.wait_healthy()

        client = running.client()
        first = client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
        assert first["rows"] == _underlay_direct()
        _wait_for_cache_entries(tmp_path / "results", 1)
        second = client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
        assert second == first

        metrics = running.admin().metrics_snapshot()
        shards = metrics["shards"]
        assert shards["count"] == 2
        assert shards["alive"] == 2
        assert len(shards["per_shard"]) == 2
        assert all(entry["alive"] for entry in shards["per_shard"])
        assert metrics["health"] == "ok"
        assert metrics["requests_total"] >= 2
        # The repeat went to *some* shard; the disk cache is shared, so it
        # hit no matter which one answered.
        cache = metrics["result_cache"]
        assert cache["hits"] >= 1
        assert cache["hits"] + cache["misses"] >= 2

        running.stop()

    def test_concurrent_volley_reconciles_with_fleet_metrics(self, fleet):
        running = fleet("--workers", "1")
        running.wait_healthy()
        calls = (
            [("/v1/ebar", lambda c, b=b, mt=mt: c.ebar(1e-3, b, mt, 2))
             for mt in (1, 2) for b in range(1, 7)]
            + [("/v1/overlay/feasible",
                lambda c, d1=d1: c.overlay_feasible(d1, 2, 10e3))
               for d1 in range(20, 140, 10)]
            + [("/v1/underlay/energy",
                lambda c, dist=dist: c.underlay_energy(1e-3, 2, 2, 5.0, dist, 10e3))
               for dist in range(40, 150, 10)]
            + [("/v1/interweave/pattern",
                lambda c, x=x: c.interweave_pattern(
                    (0.0, 0.0), (15.0, 0.0), 30.0, (x, 40.0), pr=(100.0, 0.0)))
               for x in range(40, 150, 10)]
            + [("/v1/overlay/feasible",
                lambda c: c.overlay_feasible([20.0, 40.0, 60.0], 3, 10e3)),
               ("/v1/underlay/energy",
                lambda c: c.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS))]
        )

        def fire(call):
            path, send = call
            try:
                send(running.client())
            except ServiceClientError as exc:
                return path, exc.status
            return path, 200

        admin = running.admin()
        before = admin.metrics_snapshot()
        with ThreadPoolExecutor(max_workers=8) as threads:
            seen = list(threads.map(fire, calls))
        after = admin.metrics_snapshot()

        assert [status for _, status in seen] == [200] * len(calls)

        def delta(block):
            moved = {key: after[block].get(key, 0) - before[block].get(key, 0)
                     for key in set(after[block]) | set(before[block])}
            return {key: count for key, count in moved.items() if count}

        # The supervisor's snapshot is one /metrics request on each live
        # shard, counted before that shard renders and its 200 after.
        live = before["shards"]["alive"]
        assert live == after["shards"]["alive"] == 2
        paths = Counter(path for path, _ in seen)
        paths["/metrics"] += live
        assert delta("requests_by_endpoint") == dict(paths)
        assert delta("responses_by_status") == {"200": len(calls) + live}
        # Every request was new to the shared cache; both sweeps were pooled.
        assert delta("result_cache") == {"misses": len(calls)}
        assert after["pool"]["completed"] - before["pool"]["completed"] == 2
        running.stop()

    def test_killed_shard_is_replaced_within_budget(self, fleet):
        running = fleet()
        running.wait_healthy()
        metrics = running.admin().metrics_snapshot()
        victim = metrics["shards"]["per_shard"][0]
        os.kill(victim["pid"], signal.SIGKILL)

        # Surviving shard keeps answering while the slot is refilled.
        payload = None
        for _ in range(20):
            try:
                payload = running.client().underlay_energy(
                    distance=DISTANCES, **UNDERLAY_ARGS
                )
                break
            except Exception:
                time.sleep(0.25)
        assert payload is not None
        assert payload["rows"] == _underlay_direct()

        health = running.wait_healthy(min_restarts=1)
        assert health["shards"]["alive"] == 2
        assert health["shards"]["degraded"] is False

        after = running.client().underlay_energy(
            distance=DISTANCES, **UNDERLAY_ARGS
        )
        assert after["rows"] == _underlay_direct()
        running.stop()

    def test_kill_shard_fault_plan_drives_replacement(self, fleet):
        running = fleet("--chaos-admin")
        running.wait_healthy()
        killed = running.admin().request(
            "POST", "/chaos/faults", {"action": "kill_shard"}
        )
        assert killed["shards"] == [1]
        health = running.wait_healthy(min_restarts=1)
        assert health["shards"]["restarts"] == 1
        assert health["status"] == "ok"
        payload = running.client().underlay_energy(
            distance=DISTANCES, **UNDERLAY_ARGS
        )
        assert payload["rows"] == _underlay_direct()
        running.stop()


    def test_chaos_faults_arm_every_live_shard(self, fleet):
        running = fleet("--chaos-admin")
        running.wait_healthy()
        admin = running.admin()
        with pytest.raises(ServiceClientError) as excinfo:
            admin.request("POST", "/chaos/faults", {"action": "bogus"})
        assert excinfo.value.status == 400
        armed = admin.request(
            "POST",
            "/chaos/faults",
            {"action": "drop_client", "path": "/v1/underlay/energy"},
        )
        assert armed["shards"] == [0, 1]
        # Each shard, reached on its own admin port, drops exactly its
        # next matching request.
        for entry in admin.metrics_snapshot()["shards"]["per_shard"]:
            shard = ServiceClient("127.0.0.1", entry["admin_port"], timeout_s=30.0)
            with pytest.raises(ServiceClientError) as excinfo:
                shard.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            assert excinfo.value.status == 599
            payload = shard.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            assert payload["rows"] == _underlay_direct()
        running.stop()

    def test_chaos_faults_forbidden_without_chaos_admin(self, fleet):
        running = fleet()
        with pytest.raises(ServiceClientError) as excinfo:
            running.admin().request(
                "POST", "/chaos/faults", {"action": "kill_shard"}
            )
        assert excinfo.value.status == 403
        assert "--chaos-admin" in excinfo.value.message
        assert running.wait_healthy()["shards"]["restarts"] == 0
        running.stop()
