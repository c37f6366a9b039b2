"""Simulation benchmark: event-kernel throughput and `/v1/simulate` e2e.

Measures and writes ``BENCH_sim.json`` (repo root):

* ``kernels`` — hold-model churn throughput (events/sec) of
  :class:`~repro.simulation.kernel.HeapKernel` at 1k and 5k held timers,
  via :func:`repro.simulation.workloads.run_hold_churn` — the bulk
  ``schedule_many`` path the city-scale scenario runtime leans on.
* ``simulate_stream`` — end-to-end NDJSON streaming through a live
  ``/v1/simulate``: a seeded mobile/churning scenario in a dedicated
  server-side process, timed client-side from request to summary row.
* ``scaling`` — wall time, events/sec and peak RSS of the benchmark-of-
  record ``sim-city`` scenario body (seed 1001) at 200, 500, 1000, 2000
  and 5000 nodes, the service's ``MAX_SIM_NODES`` cap.  Each point runs
  in a spawned process of its own and reads that process's ``VmHWM``:
  a high-water mark only rises, so points sharing a process would each
  report the largest so far, and ``ru_maxrss`` would not do either,
  because a spawned child inherits its parent's through exec.  The same
  process then runs the scenario a second time with its mobility,
  network-build and delivery handlers wrapped, and records the CPU
  seconds each phase took (``phase_cpu_s``); ``wall_s`` and
  ``events_per_s`` come from the unwrapped run.

Two regression gates run unless ``--no-gate`` is given:

* the kernel must sustain ``--target`` events/sec (default 1M) at every
  hold size, scaled by the same floating-point calibration ratio the
  ``bench_kernels.py`` gate uses — the committed reference calibration
  time makes the absolute target portable across machine speeds;
* every scenario digest (each scaling point and ``simulate_stream``)
  must equal the committed ``BENCH_sim.json``'s for the same size, seed
  and duration.  A run that breaks this writes nothing, so the committed
  reference is never replaced by rows that disagree with it.

``--no-gate`` measures and rewrites the file without failing.

``--profile`` instead prints the cProfile top 25 (by cumulative time) of
one ``--sim-nodes`` city scenario and writes nothing — the standing way to
find where the scenario runtime spends its time.

Usage::

    scripts/bench_sim.sh                 # measure + gate + BENCH_sim.json
    PYTHONPATH=src python benchmarks/bench_sim.py --no-gate
    PYTHONPATH=src python benchmarks/bench_sim.py --profile --sim-nodes 500
"""

import argparse
import cProfile
import json
import multiprocessing
import pathlib
import pstats
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# This file runs as a script, so its own directory is on sys.path, and the
# spawned scaling workers inherit that path: one copy of the timing helpers.
from bench_kernels import best_of, calibration

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sim.json"

#: Seconds the bench_kernels calibration workload takes on the machine
#: that set the 1M events/sec target.  BASELINE_kernels.json's
#: "calibration" entry times the same workload but reads 0.02011 s, not
#: this constant — regenerate both together.
REF_CALIBRATION_S = 0.0199

DEFAULT_TARGET_EVENTS_PER_S = 1_000_000
DEFAULT_HOLDS = (1000, 5000)
DEFAULT_N_EVENTS = 200_000
DEFAULT_REPEATS = 3
DEFAULT_SCALING_NODES = (200, 500, 1000, 2000, 5000)  # 5000: MAX_SIM_NODES
#: Seed of the first scenario in a ``sim-city`` run of the benchmark of
#: record; the scaling curve and ``--profile`` use it.
CITY_SEED = 1001
#: Seed of the ``/v1/simulate`` end-to-end scenario.
STREAM_SEED = 2026
PROFILE_TOP = 25


def bench_kernels(holds, n_events, repeats):
    """Hold-model churn throughput of the event kernel at each hold size."""
    from repro.simulation.kernel import HeapKernel
    from repro.simulation.workloads import run_hold_churn

    results = {}
    for hold in holds:
        seconds = best_of(
            lambda hold=hold: run_hold_churn(HeapKernel(), hold=hold, n_events=n_events),
            repeats,
        )
        rate = n_events / seconds
        results[f"heap_hold{hold}"] = {
            "hold": hold,
            "n_events": n_events,
            "seconds": seconds,
            "events_per_s": rate,
        }
        print(
            f"bench_sim: heap hold={hold}: {rate / 1e6:.2f} M events/s "
            f"(best of {repeats})",
            flush=True,
        )
    return results


def city_scenario(n_nodes, duration_s, seed):
    """The ``sim-city`` scenario body (mobile, churning, 800 m square)."""
    return {
        "n_nodes": n_nodes,
        "arena_m": [800.0, 800.0],
        "duration_s": duration_s,
        "seed": seed,
        "snapshot_interval_s": 5.0,
        "churn": {"leave_rate_per_node_s": 0.002, "join_rate_per_s": 0.5},
    }


def city_runner(n_nodes, duration_s):
    """A callable that builds and runs the seed-``CITY_SEED`` city
    scenario and returns its summary row (imports done beforehand)."""
    from repro.scenario.runtime import ScenarioRuntime
    from repro.scenario.spec import scenario_from_mapping

    spec = scenario_from_mapping(city_scenario(n_nodes, duration_s, CITY_SEED))
    return lambda: list(ScenarioRuntime(spec).run())[-1]


def peak_rss_mib():
    """This process's peak resident set size in MiB (Linux ``VmHWM``)."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def phase_cpu_s(n_nodes, duration_s):
    """CPU seconds one city scenario spends per phase: mobility ticks,
    network builds, packet delivery and everything else (the rest of
    the run, the wrappers' own clock reads included)."""
    from repro.scenario.runtime import ScenarioRuntime
    from repro.scenario.spec import scenario_from_mapping

    spent = {"mobility": 0.0, "network": 0.0, "delivery": 0.0}

    def timed(phase, handler):
        def wrapper(self, *args):
            start = time.process_time()
            try:
                return handler(self, *args)
            finally:
                spent[phase] += time.process_time() - start

        return wrapper

    class PhaseTimedRuntime(ScenarioRuntime):
        _on_mobility_tick = timed("mobility", ScenarioRuntime._on_mobility_tick)
        _rebuild_network = timed("network", ScenarioRuntime._rebuild_network)
        _deliver = timed("delivery", ScenarioRuntime._deliver)

    spec = scenario_from_mapping(city_scenario(n_nodes, duration_s, CITY_SEED))
    start = time.process_time()
    summary = list(PhaseTimedRuntime(spec).run())[-1]
    total = time.process_time() - start
    spent["other"] = total - sum(spent.values())
    return spent, summary["digest"]


def scaling_point(n_nodes, duration_s):
    """Wall time, events/sec, digest and peak RSS of one city scenario,
    then its per-phase CPU split from a second, wrapped run (call it in a
    fresh process, so the RSS is this scenario's)."""
    run = city_runner(n_nodes, duration_s)
    start = time.perf_counter()  # lint: ignore[RP103]
    summary = run()
    wall_s = time.perf_counter() - start  # lint: ignore[RP103]
    events = int(summary["events_processed"])
    peak = peak_rss_mib()
    phases, digest = phase_cpu_s(n_nodes, duration_s)
    if digest != summary["digest"]:
        raise RuntimeError(f"{n_nodes} nodes: the wrapped run digests {digest}")
    return {
        "n_nodes": n_nodes,
        "events_processed": events,
        "wall_s": wall_s,
        "events_per_s": events / wall_s,
        "peak_rss_mib": peak,
        "phase_cpu_s": phases,
        "digest": summary["digest"],
    }


def bench_scaling(node_counts, duration_s):
    """The city scenario's scaling curve, one spawned process per size."""
    spawn = multiprocessing.get_context("spawn")
    points = []
    for n_nodes in node_counts:
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            point = pool.submit(scaling_point, n_nodes, duration_s).result()
        points.append(point)
        split = ", ".join(f"{k} {v:.2f}" for k, v in point["phase_cpu_s"].items())
        print(
            f"bench_sim: scaling {n_nodes} nodes: {point['events_processed']} "
            f"events in {point['wall_s']:.2f}s "
            f"({point['events_per_s'] / 1e3:.1f}k events/s), "
            f"peak RSS {point['peak_rss_mib']:.0f} MiB; CPU s: {split}",
            flush=True,
        )
    return {"seed": CITY_SEED, "duration_s": duration_s, "points": points}


def profile_scenario(n_nodes, duration_s):
    """Print the cProfile top entries of one city scenario run."""
    profiler = cProfile.Profile()
    profiler.runcall(city_runner(n_nodes, duration_s))
    print(f"bench_sim: profile of {n_nodes} nodes x {duration_s:g}s, seed {CITY_SEED}")
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("cumulative").print_stats(
        PROFILE_TOP
    )


def bench_simulate_stream(n_nodes, duration_s):
    """End-to-end `/v1/simulate` NDJSON streaming, timed client-side."""
    from repro.service.config import ServiceConfig
    from repro.service.testing import ThreadedServer

    scenario = city_scenario(n_nodes, duration_s, seed=STREAM_SEED)
    config = ServiceConfig(port=0, workers=0, request_log=False, result_cache=False)
    with ThreadedServer(config) as server:
        client = server.client(timeout_s=600.0)
        start = time.perf_counter()  # lint: ignore[RP103]
        rows = list(client.simulate_stream(scenario))
        wall_s = time.perf_counter() - start  # lint: ignore[RP103]
    summary = rows[-1]
    assert summary["row"] == "summary", summary
    events = int(summary["events_processed"])
    result = {
        "n_nodes": n_nodes,
        "duration_s": duration_s,
        "seed": STREAM_SEED,
        "snapshot_rows": len(rows) - 1,
        "events_processed": events,
        "wall_s": wall_s,
        "events_per_wall_s": events / wall_s,
        "rows_per_s": len(rows) / wall_s,
        "digest": summary["digest"],
    }
    print(
        f"bench_sim: /v1/simulate {n_nodes} nodes x {duration_s:g}s: "
        f"{len(rows) - 1} snapshots in {wall_s:.2f}s wall "
        f"({events / wall_s / 1e3:.0f}k sim events/s end-to-end)",
        flush=True,
    )
    return result


def scenario_digests(payload):
    """``{(kind, seed, duration_s, n_nodes): digest}`` of a BENCH_sim
    payload's scenarios (a ``simulate_stream`` without a seed is left
    out: it cannot be matched)."""
    digests = {}
    scaling = payload.get("scaling", {})
    for point in scaling.get("points", []):
        key = ("scaling", scaling["seed"], scaling["duration_s"], point["n_nodes"])
        digests[key] = point["digest"]
    stream = payload.get("simulate_stream")
    if stream is not None and "seed" in stream:
        key = ("simulate_stream", stream["seed"], stream["duration_s"], stream["n_nodes"])
        digests[key] = stream["digest"]
    return digests


def digest_mismatches(committed, fresh):
    """Descriptions of every fresh scenario whose digest differs from the
    committed payload's for the same kind, seed, duration and size."""
    reference = scenario_digests(committed)
    mismatches = []
    for key, digest in sorted(scenario_digests(fresh).items()):
        expected = reference.get(key)
        if expected is not None and expected != digest:
            kind, seed, duration_s, n_nodes = key
            mismatches.append(
                f"{kind} seed {seed}, {duration_s:g} s, {n_nodes} nodes: "
                f"{digest} != committed {expected}"
            )
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n-events", type=int, default=DEFAULT_N_EVENTS,
                        help="dispatched events per kernel measurement")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="runs per measurement; best is kept")
    parser.add_argument("--target", type=float,
                        default=DEFAULT_TARGET_EVENTS_PER_S,
                        help="event-kernel events/sec gate, before "
                        "calibration scaling (default 1e6)")
    parser.add_argument("--sim-nodes", type=int, default=200,
                        help="scenario size for the /v1/simulate e2e leg "
                        "and --profile")
    parser.add_argument("--sim-duration-s", type=float, default=60.0,
                        help="scenario duration for the e2e leg, the "
                        "scaling curve and --profile")
    parser.add_argument("--skip-e2e", action="store_true",
                        help="skip the /v1/simulate end-to-end leg")
    parser.add_argument("--no-gate", action="store_true",
                        help="measure and write JSON without failing on "
                        "the throughput or digest gate")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help="output JSON path (default BENCH_sim.json)")
    parser.add_argument("--profile", action="store_true",
                        help=f"print the cProfile top {PROFILE_TOP} of one "
                        "--sim-nodes city scenario (seed "
                        f"{CITY_SEED}) and exit without writing JSON")
    args = parser.parse_args(argv)

    if args.profile:
        profile_scenario(args.sim_nodes, args.sim_duration_s)
        return 0

    # The committed digests, read before anything can rewrite the file.
    committed = (
        json.loads(DEFAULT_OUTPUT.read_text()) if DEFAULT_OUTPUT.exists() else {}
    )

    cal_s = best_of(calibration, args.repeats)
    # A slower machine (larger cal_s) gets a proportionally lower bar.
    scale = REF_CALIBRATION_S / cal_s
    scaled_target = args.target * scale
    print(
        f"bench_sim: calibration {cal_s * 1e3:.0f} ms "
        f"(ref {REF_CALIBRATION_S * 1e3:.0f} ms) -> scaled target "
        f"{scaled_target / 1e6:.2f} M events/s",
        flush=True,
    )

    kernels = bench_kernels(DEFAULT_HOLDS, args.n_events, args.repeats)
    payload = {
        "note": ("hold-model kernel churn, /v1/simulate NDJSON streaming "
                 "and the in-process city scenario scaling curve with its "
                 "per-phase CPU split; gates: kernel events/sec >= target "
                 "scaled by the calibration ratio, and every scenario digest "
                 "equal to the committed file's"),
        "calibration_s": cal_s,
        "ref_calibration_s": REF_CALIBRATION_S,
        "target_events_per_s": args.target,
        "scaled_target_events_per_s": scaled_target,
        "kernels": kernels,
        "scaling": bench_scaling(DEFAULT_SCALING_NODES, args.sim_duration_s),
    }
    if not args.skip_e2e:
        payload["simulate_stream"] = bench_simulate_stream(
            args.sim_nodes, args.sim_duration_s
        )

    failed = []
    for name, row in kernels.items():
        ok = row["events_per_s"] >= scaled_target
        row["gate"] = "ok" if ok else "REGRESSED"
        if not ok:
            failed.append(name)

    mismatches = digest_mismatches(committed, payload)
    if mismatches and not args.no_gate:
        for line in mismatches:
            print(f"bench_sim: digest changed: {line}", file=sys.stderr)
        print(f"bench_sim: {DEFAULT_OUTPUT} not rewritten", file=sys.stderr)
        return 1
    checked = len(scenario_digests(payload).keys() & scenario_digests(committed).keys())
    print(
        f"bench_sim: {checked} scenario digests checked against {DEFAULT_OUTPUT.name}, "
        f"{len(mismatches)} changed",
        flush=True,
    )

    output = pathlib.Path(args.output)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"bench_sim: wrote {output}", flush=True)

    if failed and not args.no_gate:
        print(
            f"bench_sim: {failed} below the scaled "
            f"{scaled_target / 1e6:.2f} M events/s target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
