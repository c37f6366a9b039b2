"""Simulation benchmark: event-kernel throughput and `/v1/simulate` e2e.

Measures and writes ``BENCH_sim.json`` (repo root):

* ``kernels`` — hold-model churn throughput (events/sec) of
  :class:`~repro.simulation.kernel.HeapKernel` at 1k and 5k held timers,
  via :func:`repro.simulation.workloads.run_hold_churn` — the bulk
  ``schedule_many`` path the city-scale scenario runtime leans on.
* ``simulate_stream`` — end-to-end NDJSON streaming through a live
  ``/v1/simulate``: a seeded mobile/churning scenario in a dedicated
  server-side process, timed client-side from request to summary row.
* ``scaling`` — in-process wall time and events/sec of the benchmark-of-
  record ``sim-city`` scenario body (seed 1001) at 200, 500, 1000 and
  2000 nodes.  The curve stops at 2000 because d-clustering holds an
  n x n float64 distance matrix (3.2 GB at 20k nodes).

The kernel numbers also act as a regression gate: the kernel must
sustain ``--target`` events/sec (default 1M) at every hold size,
scaled by the same floating-point calibration ratio the
``bench_kernels.py`` gate uses — the committed reference calibration
time makes the absolute target portable across machine speeds.  Run
with ``--no-gate`` to measure without failing.

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
import pathlib
import pstats
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sim.json"

#: Seconds the bench_kernels calibration workload takes on the machine
#: that set the 1M events/sec target (same workload, same constant as
#: BASELINE_kernels.json's "calibration" entry — regenerate both together).
REF_CALIBRATION_S = 0.0199

DEFAULT_TARGET_EVENTS_PER_S = 1_000_000
DEFAULT_HOLDS = (1000, 5000)
DEFAULT_N_EVENTS = 200_000
DEFAULT_REPEATS = 3
DEFAULT_SCALING_NODES = (200, 500, 1000, 2000)
#: Seed of the first scenario in a ``sim-city`` run of the benchmark of
#: record; the scaling curve and ``--profile`` use it.
CITY_SEED = 1001
PROFILE_TOP = 25


def calibration():
    """Fixed numpy workload; speed tracks host floating-point throughput."""
    import numpy as np

    # Calibration workload, not library results: a fixed-seed local
    # generator is exactly what a hardware probe wants.
    rng = np.random.default_rng(2026)  # lint: ignore[RP102]
    a = rng.standard_normal((400, 400))
    total = 0.0
    for _ in range(6):
        b = a @ a.T
        total += float(np.log1p(np.abs(b)).sum())
    assert total > 0.0


def best_of(fn, repeats):
    """Best (minimum) wall-clock seconds over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        # Benchmarks measure wall-clock by definition.
        start = time.perf_counter()  # lint: ignore[RP103]
        fn()
        best = min(best, time.perf_counter() - start)  # lint: ignore[RP103]
    return best


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


def bench_scaling(node_counts, duration_s):
    """In-process wall time and events/sec of the city scenario per size."""
    points = []
    for n_nodes in node_counts:
        run = city_runner(n_nodes, duration_s)
        start = time.perf_counter()  # lint: ignore[RP103]
        summary = run()
        wall_s = time.perf_counter() - start  # lint: ignore[RP103]
        events = int(summary["events_processed"])
        points.append({
            "n_nodes": n_nodes,
            "events_processed": events,
            "wall_s": wall_s,
            "events_per_s": events / wall_s,
            "digest": summary["digest"],
        })
        print(
            f"bench_sim: scaling {n_nodes} nodes: {events} events in "
            f"{wall_s:.2f}s ({events / wall_s / 1e3:.1f}k events/s)",
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

    scenario = city_scenario(n_nodes, duration_s, seed=2026)
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
                        "the throughput gate")
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
                 "and the in-process city scenario scaling curve; gate: "
                 "kernel events/sec >= target scaled by the calibration "
                 "ratio"),
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
