"""Shard supervisor: fleet boot, aggregation, replacement, chaos, fallback."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

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


# --------------------------------------------------------------------- #
# End-to-end fleets (CLI subprocess, SO_REUSEPORT path)                 #
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


class TestShardedFleet:
    def test_fleet_serves_aggregates_and_shares_the_result_cache(self, fleet):
        running = fleet()
        assert running.announce["shards"] == 2
        running.wait_healthy()

        client = running.client()
        first = client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
        assert first["rows"] == _underlay_direct()
        second = client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
        assert second == first

        metrics = running.admin().metrics_snapshot()
        shards = metrics["shards"]
        assert shards["count"] == 2
        assert shards["alive"] == 2
        assert shards["mode"] == "reuseport"
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


# --------------------------------------------------------------------- #
# Fallback mode: inherited listener (no SO_REUSEPORT)                   #
# --------------------------------------------------------------------- #


class SupervisedFleet:
    """In-process supervisor (subprocess shards) for harness-level tests."""

    def __init__(self, config, shards=2, **kwargs):
        self.supervisor = ShardSupervisor(config, shards, **kwargs)
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._error = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as error:
            self._error = error
            self._ready.set()

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.supervisor.run(
            stop=self._stop,
            install_signal_handlers=False,
            announce=False,
            on_ready=lambda _: self._ready.set(),
        )

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(BOOT_TIMEOUT_S):
            raise RuntimeError("supervised fleet did not come up in time")
        if self._error is not None:
            raise RuntimeError(f"supervisor failed: {self._error!r}")
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass
        self._thread.join(BOOT_TIMEOUT_S)


class TestListenFdFallback:
    def test_fleet_works_without_reuseport(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "table-cache"))
        config = ServiceConfig(
            port=0,
            workers=0,
            request_log=False,
            result_cache_dir=str(tmp_path / "results"),
        )
        with SupervisedFleet(config, reuse_port=False) as running:
            port = running.supervisor.port
            client = ServiceClient("127.0.0.1", port, timeout_s=30.0)
            payload = client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            assert payload["rows"] == _underlay_direct()
            admin = ServiceClient(
                "127.0.0.1", running.supervisor.admin_port, timeout_s=30.0
            )
            metrics = admin.metrics_snapshot()
            assert metrics["shards"]["mode"] == "listen-fd"
            assert metrics["shards"]["alive"] == 2
            assert metrics["health"] == "ok"
