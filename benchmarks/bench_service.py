"""Load generator for the repro.service planning daemon.

Boots ``python -m repro.service`` as a subprocess on an ephemeral port,
fires a mixed workload (>= 1k requests by default) from a thread pool of
stdlib clients, and writes ``BENCH_service.json`` with client-side
throughput and latency percentiles plus the server's own ``/metrics``
snapshot (coalesced-batch statistics, cache hit rate, pool counters).

Three variants run back to back:

* ``single`` — one server process, result cache off (the PR-5 baseline);
* ``sharded`` — ``--shards N`` (default: one per available CPU, min 2)
  behind one SO_REUSEPORT port, result cache off; the report records the
  speedup over ``single`` together with ``cpu_count`` so a multi-core
  runner can assert the >= 2x scaling criterion;
* ``warm_cache`` — one server with the persistent result cache on a
  fresh directory; the identical workload runs twice (cold, then warm)
  and the report records both passes plus the observed hit rate.

The workload is the seeded ``bench`` preset of :mod:`repro.loadgen` —
the same spec ``python -m repro.loadgen run --preset bench`` fires — so
the benchmark and the chaos load generator share one traffic model.  It
is deliberately coalescing-friendly: scalar requests share group keys
(same ``(mt, mr)`` ebar group, same overlay ``(m, bandwidth)`` config,
...) while varying the per-item axis, so concurrent arrivals within the
coalescing window merge into single batch-kernel calls.  The script
fails (exit 1) if the observed mean coalesced-batch size is not greater
than 1 — the whole point of the scheduler — or if the warm pass misses
the result cache.

Usage (from the repo root)::

    scripts/bench_service.sh
    PYTHONPATH=src python benchmarks/bench_service.py --requests 2000
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

BENCH_RATE_PER_S = 128.0


# --------------------------------------------------------------------- #
# Workload construction                                                  #
# --------------------------------------------------------------------- #


def build_workload(n_requests):
    """Return a list of ``(endpoint_kind, fn(client) -> payload)`` calls.

    The mix comes from the seeded loadgen ``bench`` preset: scalar calls
    dominate (they exercise the coalescer — every payload is drawn from a
    shared-group grid) with a small tail of sweeps for the worker pool.
    Arrival order is the plan's own time-sorted interleaving, so repeated
    runs fire the identical sequence.
    """
    from repro.loadgen import bench_spec, build_plan

    spec = bench_spec(
        seed=2026,
        duration_s=max(10.0, 1.2 * n_requests / BENCH_RATE_PER_S),
        total_rate_per_s=BENCH_RATE_PER_S,
    )
    calls = [
        (request.kind,
         lambda c, r=request: c.request(r.method, r.path, r.body))
        for request in build_plan(spec)
    ]
    # Top up with round-robin repeats if the plan is short of the target
    # (repeats are cache hits for ebar — still valid requests).
    i = 0
    while len(calls) < n_requests:
        calls.append(calls[i])
        i += 1
    return calls[:n_requests]


# --------------------------------------------------------------------- #
# Load generation                                                        #
# --------------------------------------------------------------------- #


def run_load(host, port, calls, n_threads):
    """Fire every call from a thread pool; return per-request samples."""
    from repro.service.client import ServiceClient, ServiceClientError

    def fire(item):
        endpoint, fn = item
        client = ServiceClient(host, port, timeout_s=120.0)
        # Benchmarks measure wall-clock by definition (here and below).
        start = time.perf_counter()  # lint: ignore[RP103]
        try:
            fn(client)
            error = None
        except ServiceClientError as exc:
            error = exc.status
        latency_ms = 1e3 * (time.perf_counter() - start)  # lint: ignore[RP103]
        return endpoint, latency_ms, error

    wall_start = time.perf_counter()  # lint: ignore[RP103]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        samples = list(pool.map(fire, calls))
    wall_s = time.perf_counter() - wall_start  # lint: ignore[RP103]
    return samples, wall_s


def summarize(latencies_ms):
    """Latency percentiles, shared with the loadgen trace summaries."""
    from repro.loadgen import summarize_latencies

    return summarize_latencies(latencies_ms)


# --------------------------------------------------------------------- #
# Server lifecycle                                                       #
# --------------------------------------------------------------------- #


class Server:
    """A ``repro.service`` subprocess (single or sharded) under test."""

    def __init__(self, workers, coalesce_ms, queue_limit, *, shards=1,
                 result_cache_dir=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        argv = [
            sys.executable, "-m", "repro.service",
            "--port", "0",
            "--shards", str(shards),
            "--workers", str(workers),
            "--coalesce-ms", str(coalesce_ms),
            "--queue-limit", str(queue_limit),
            "--seed", "2026",
            "--no-request-log",
            "--quiet",
        ]
        if result_cache_dir is None:
            argv.append("--no-result-cache")
        else:
            argv.extend(["--result-cache-dir", str(result_cache_dir)])
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        announced = json.loads(self.proc.stdout.readline())
        assert announced["event"] == "listening", announced
        self.host = announced["host"]
        self.port = announced["port"]
        # Sharded fleets expose /metrics on the supervisor's admin port
        # (shard listeners sit behind kernel balancing); single servers
        # answer /metrics on the main port directly.
        self.metrics_port = announced.get("admin_port", self.port)

    def metrics_snapshot(self):
        from repro.service.client import ServiceClient

        client = ServiceClient(self.host, self.metrics_port, timeout_s=60.0)
        return client.metrics_snapshot()

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=60)

    def kill_if_alive(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def run_variant(server, calls, n_threads):
    """Fire the workload at a running server; return (pass report, metrics)."""
    samples, wall_s = run_load(server.host, server.port, calls, n_threads)
    metrics = server.metrics_snapshot()
    errors = [s for s in samples if s[2] is not None]
    by_endpoint = {}
    for endpoint, latency_ms, _ in samples:
        by_endpoint.setdefault(endpoint, []).append(latency_ms)
    report = {
        "totals": {
            "requests": len(samples),
            "errors": len(errors),
            "error_statuses": sorted({s[2] for s in errors}),
            "wall_time_s": wall_s,
            "throughput_rps": len(samples) / wall_s,
        },
        "latency_ms": summarize([s[1] for s in samples]),
        "latency_by_endpoint_ms": {
            endpoint: summarize(lats)
            for endpoint, lats in sorted(by_endpoint.items())
        },
    }
    return report, metrics


def server_metrics_summary(metrics):
    summary = {
        "coalesce": metrics["coalesce"],
        "result_cache": metrics.get("result_cache", {"hits": 0, "misses": 0}),
        "pool": metrics["pool"],
        "responses_by_status": metrics["responses_by_status"],
        "server_latency_ms": {
            k: metrics["latency_ms"][k]
            for k in ("count", "p50_ms", "p95_ms", "p99_ms", "max_ms")
        },
    }
    if "shards" in metrics:
        shards = metrics["shards"]
        summary["shards"] = {
            k: shards[k]
            for k in ("count", "alive", "restarts", "degraded")
        }
    return summary


def hit_rate(result_cache):
    total = result_cache["hits"] + result_cache["misses"]
    return result_cache["hits"] / total if total else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=1280,
                        help="request count per variant (>= 1000; default 1280)")
    parser.add_argument("--threads", type=int, default=16,
                        help="client thread count (default 16)")
    parser.add_argument("--workers", type=int, default=2,
                        help="server sweep workers (default 2)")
    parser.add_argument("--shards", default="auto",
                        help="shard count for the sharded variant "
                             "(int or 'auto' = one per CPU, min 2)")
    parser.add_argument("--coalesce-ms", type=float, default=5.0,
                        help="server coalescing window (default 5 ms)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="server sweep queue limit (default 64)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_service.json"),
                        help="output JSON path (default BENCH_service.json)")
    args = parser.parse_args(argv)
    if args.requests < 1000:
        parser.error("--requests must be >= 1000 for a meaningful run")

    from repro.utils.sysinfo import available_cpu_count

    cpu_count = available_cpu_count()
    shards = (max(2, cpu_count) if args.shards == "auto"
              else max(2, int(args.shards)))

    # Seeded loadgen plan: deterministic request mix for the bench.
    calls = build_workload(args.requests)
    print(f"bench_service: {len(calls)} requests/variant, "
          f"{args.threads} threads, coalesce window {args.coalesce_ms} ms, "
          f"{cpu_count} cpus, sharded variant uses {shards} shards",
          flush=True)

    variants = {}
    exit_codes = {}

    def run_server_variant(name, **server_kwargs):
        server = Server(args.workers, args.coalesce_ms, args.queue_limit,
                        **server_kwargs)
        try:
            report, metrics = run_variant(server, calls, args.threads)
            exit_codes[name] = server.stop()
        finally:
            server.kill_if_alive()
        report["server_metrics"] = server_metrics_summary(metrics)
        variants[name] = report
        totals, lat = report["totals"], report["latency_ms"]
        print(f"bench_service[{name}]: {totals['throughput_rps']:.1f} req/s, "
              f"p50 {lat['p50_ms']:.2f} ms, p95 {lat['p95_ms']:.2f} ms",
              flush=True)
        return report, metrics

    # Variant 1: single shard, result cache off — the baseline.
    single, _ = run_server_variant("single")

    # Variant 2: N shards behind one SO_REUSEPORT port, result cache off.
    sharded, _ = run_server_variant("sharded", shards=shards)
    sharded["shards"] = shards
    sharded["speedup_vs_single"] = (
        sharded["totals"]["throughput_rps"]
        / single["totals"]["throughput_rps"]
    )

    # Variant 3: one server, persistent result cache on a fresh directory;
    # the identical workload runs cold then warm against the same server.
    with tempfile.TemporaryDirectory(prefix="bench-rescache-") as cache_dir:
        server = Server(args.workers, args.coalesce_ms, args.queue_limit,
                        result_cache_dir=cache_dir)
        try:
            cold, _ = run_variant(server, calls, args.threads)
            warm, metrics = run_variant(server, calls, args.threads)
            exit_codes["warm_cache"] = server.stop()
        finally:
            server.kill_if_alive()
    warm_cache = {
        "cold": {"totals": cold["totals"], "latency_ms": cold["latency_ms"]},
        "warm": {"totals": warm["totals"], "latency_ms": warm["latency_ms"]},
        "warm_p50_over_cold_p50": (
            warm["latency_ms"]["p50_ms"] / cold["latency_ms"]["p50_ms"]
        ),
        "result_cache_hit_rate": hit_rate(metrics["result_cache"]),
        "server_metrics": server_metrics_summary(metrics),
    }
    variants["warm_cache"] = warm_cache
    print(f"bench_service[warm_cache]: cold p50 "
          f"{cold['latency_ms']['p50_ms']:.2f} ms, warm p50 "
          f"{warm['latency_ms']['p50_ms']:.2f} ms, hit rate "
          f"{warm_cache['result_cache_hit_rate']:.2f}", flush=True)

    coalesce = single["server_metrics"]["coalesce"]
    report = {
        "benchmark": "repro.service load test",
        "config": {
            "requests_per_variant": len(calls),
            "threads": args.threads,
            "workers": args.workers,
            "shards": shards,
            "cpu_count": cpu_count,
            "coalesce_ms": args.coalesce_ms,
            "queue_limit": args.queue_limit,
        },
        # Legacy top-level fields mirror the single-shard baseline so older
        # tooling reading BENCH_service.json keeps working.
        "totals": dict(single["totals"],
                       server_exit_code=exit_codes["single"]),
        "latency_ms": single["latency_ms"],
        "latency_by_endpoint_ms": single["latency_by_endpoint_ms"],
        "server_metrics": single["server_metrics"],
        "variants": variants,
        "scaling": {
            "cpu_count": cpu_count,
            "shards": shards,
            "sharded_speedup_vs_single": sharded["speedup_vs_single"],
            "note": ("speedup is bounded by cpu_count; the >= 2x criterion "
                     "applies on multi-core runners"),
        },
        "server_exit_codes": exit_codes,
    }
    pathlib.Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    lat = single["latency_ms"]
    print(f"bench_service: single {single['totals']['throughput_rps']:.1f} "
          f"req/s (p95 {lat['p95_ms']:.2f} ms), sharded x"
          f"{sharded['speedup_vs_single']:.2f} on {cpu_count} cpus, "
          f"warm/cold p50 {warm_cache['warm_p50_over_cold_p50']:.2f}, "
          f"mean coalesced batch {coalesce['mean_batch_size']:.2f} "
          f"(max {coalesce['max_batch_size']})", flush=True)
    print(f"wrote {args.output}", flush=True)

    failed = False
    for name, variant in variants.items():
        passes = ([variant] if "totals" in variant
                  else [variant["cold"], variant["warm"]])
        for item in passes:
            if item["totals"]["errors"]:
                print(f"bench_service: {name}: "
                      f"{item['totals']['errors']} requests failed "
                      f"(statuses {item['totals']['error_statuses']})",
                      file=sys.stderr)
                failed = True
    if coalesce["mean_batch_size"] <= 1.0:
        print("bench_service: mean coalesced-batch size <= 1 — "
              "coalescing never engaged", file=sys.stderr)
        failed = True
    if warm_cache["result_cache_hit_rate"] <= 0.5:
        print("bench_service: warm pass barely hit the result cache "
              f"(hit rate {warm_cache['result_cache_hit_rate']:.2f})",
              file=sys.stderr)
        failed = True
    for name, code in exit_codes.items():
        if code != 0:
            print(f"bench_service: {name} server exited {code}",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
