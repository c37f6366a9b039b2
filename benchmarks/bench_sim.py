"""Simulation benchmark: event-kernel throughput and `/v1/simulate` e2e.

Measures and writes ``BENCH_sim.json`` (repo root):

* ``kernels`` — hold-model churn throughput (events/sec) of
  :class:`~repro.simulation.kernel.HeapKernel` at 1k and 5k held timers,
  via :func:`repro.simulation.workloads.run_hold_churn` — the bulk
  ``schedule_many`` path the city-scale scenario runtime leans on.
* ``simulate_stream`` — end-to-end NDJSON streaming through a live
  ``/v1/simulate``: a seeded mobile/churning scenario in a dedicated
  server-side process, timed client-side from request to summary row.

The kernel numbers also act as a regression gate: the kernel must
sustain ``--target`` events/sec (default 1M) at every hold size,
scaled by the same floating-point calibration ratio the
``bench_kernels.py`` gate uses — the committed reference calibration
time makes the absolute target portable across machine speeds.  Run
with ``--no-gate`` to measure without failing.

Usage::

    scripts/bench_sim.sh                 # measure + gate + BENCH_sim.json
    PYTHONPATH=src python benchmarks/bench_sim.py --no-gate
"""

import argparse
import json
import pathlib
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


def bench_simulate_stream(n_nodes, duration_s):
    """End-to-end `/v1/simulate` NDJSON streaming, timed client-side."""
    from repro.service.config import ServiceConfig
    from repro.service.testing import ThreadedServer

    scenario = {
        "n_nodes": n_nodes,
        "arena_m": [800.0, 800.0],
        "duration_s": duration_s,
        "seed": 2026,
        "snapshot_interval_s": 5.0,
        "churn": {"leave_rate_per_node_s": 0.002, "join_rate_per_s": 0.5},
    }
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
                        help="scenario size for the /v1/simulate e2e leg")
    parser.add_argument("--sim-duration-s", type=float, default=60.0,
                        help="scenario duration for the e2e leg")
    parser.add_argument("--skip-e2e", action="store_true",
                        help="skip the /v1/simulate end-to-end leg")
    parser.add_argument("--no-gate", action="store_true",
                        help="measure and write JSON without failing on "
                        "the throughput gate")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help="output JSON path (default BENCH_sim.json)")
    args = parser.parse_args(argv)

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
        "note": ("hold-model kernel churn plus /v1/simulate NDJSON "
                 "streaming; gate: kernel events/sec >= target scaled "
                 "by the calibration ratio"),
        "calibration_s": cal_s,
        "ref_calibration_s": REF_CALIBRATION_S,
        "target_events_per_s": args.target,
        "scaled_target_events_per_s": scaled_target,
        "kernels": kernels,
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
