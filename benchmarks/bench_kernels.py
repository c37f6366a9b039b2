"""Kernel regression gate: time the hot kernels against a committed baseline.

Times the kernels that dominate every sweep, table build and simulation:

* ``ebar_batch_solve`` — the vectorized ``solve_ebar_batch`` over the
  full default anchor grid (the "Preprocessing" inner kernel);
* ``ebar_table_build`` — a cold ``EbarTable`` construction (cache off);
* ``fig6_sweep`` — the Figure 6 overlay distance sweep (``fast`` grid);
* ``fig7_sweep`` — the Figure 7 underlay PA energy sweep (``fast`` grid);
* ``sim_hold_heap`` — hold-model event churn on the `repro.simulation`
  kernel at a 5k-timer population (the absolute events/sec floor lives
  in ``bench_sim.py``; this entry guards against relative regressions).

Two modes::

    PYTHONPATH=src python benchmarks/bench_kernels.py --update
    PYTHONPATH=src python benchmarks/bench_kernels.py --check

``--update`` rewrites ``benchmarks/BASELINE_kernels.json`` from the
current machine.  ``--check`` re-times every kernel and fails (exit 1) if
any is more than ``--tolerance`` (default 25%) slower than the baseline.

Raw wall-clock baselines do not transfer between machines, so the
baseline also records a *calibration* measurement — a fixed pure-numpy
workload whose speed tracks the host's floating-point throughput.  At
check time every kernel's budget is scaled by the measured calibration
ratio (current machine vs baseline machine), which keeps the 25% gate
meaningful on CI runners of different speeds.  Each kernel's score is
the best of ``--repeats`` runs, which suppresses scheduler noise.
"""

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "BASELINE_kernels.json"
DEFAULT_TOLERANCE = 0.25
DEFAULT_REPEATS = 5


# --------------------------------------------------------------------- #
# Kernels                                                                #
# --------------------------------------------------------------------- #


def kernel_ebar_batch_solve():
    import numpy as np

    from repro.energy.ebar import solve_ebar_batch
    from repro.energy.table import DEFAULT_B_GRID, DEFAULT_M_GRID, DEFAULT_P_GRID

    p = np.asarray(DEFAULT_P_GRID)[:, None, None, None]
    b = np.asarray(DEFAULT_B_GRID)[None, :, None, None]
    mt = np.asarray(DEFAULT_M_GRID)[None, None, :, None]
    mr = np.asarray(DEFAULT_M_GRID)[None, None, None, :]
    grid = solve_ebar_batch(p, b, mt, mr)
    assert np.isfinite(grid).any()


def kernel_ebar_table_build():
    from repro.energy.table import EbarTable

    table = EbarTable(use_cache=False)
    assert len(table) > 0


def kernel_fig6_sweep():
    from repro.experiments import run_experiment
    from repro.experiments.fig6_overlay_distance import check

    check(run_experiment("fig6", fast=True))


def kernel_fig7_sweep():
    from repro.experiments import run_experiment
    from repro.experiments.fig7_underlay_energy import check

    check(run_experiment("fig7", fast=True))


def kernel_sim_hold_heap():
    from repro.simulation.kernel import HeapKernel
    from repro.simulation.workloads import run_hold_churn

    run_hold_churn(HeapKernel(), hold=5000, n_events=100_000)


KERNELS = {
    "ebar_batch_solve": kernel_ebar_batch_solve,
    "ebar_table_build": kernel_ebar_table_build,
    "fig6_sweep": kernel_fig6_sweep,
    "fig7_sweep": kernel_fig7_sweep,
    "sim_hold_heap": kernel_sim_hold_heap,
}


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


# --------------------------------------------------------------------- #
# Timing                                                                 #
# --------------------------------------------------------------------- #


def best_of(fn, repeats):
    """Best (minimum) wall-clock seconds over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        # Benchmarks measure wall-clock by definition.
        start = time.perf_counter()  # lint: ignore[RP103]
        fn()
        best = min(best, time.perf_counter() - start)  # lint: ignore[RP103]
    return best


def measure_all(repeats):
    times = {"calibration": best_of(calibration, repeats)}
    for name, fn in KERNELS.items():
        times[name] = best_of(fn, repeats)
        print(f"bench_kernels: {name}: {times[name] * 1e3:.1f} ms "
              f"(best of {repeats})", flush=True)
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--update", action="store_true",
                      help="rewrite the committed baseline from this machine")
    mode.add_argument("--check", action="store_true",
                      help="fail if any kernel regressed past the tolerance")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="runs per kernel; best is kept (default 5)")
    parser.add_argument("--baseline", default=str(BASELINE_PATH),
                        help="baseline JSON path")
    args = parser.parse_args(argv)
    baseline_path = pathlib.Path(args.baseline)

    times = measure_all(args.repeats)

    if args.update:
        payload = {
            "note": ("best-of-N wall seconds; checks scale budgets by the "
                     "calibration ratio, so the baseline machine's absolute "
                     "speed does not matter"),
            "repeats": args.repeats,
            "seconds": times,
        }
        baseline_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"bench_kernels: wrote {baseline_path}", flush=True)
        return 0

    baseline = json.loads(baseline_path.read_text())["seconds"]
    scale = times["calibration"] / baseline["calibration"]
    print(f"bench_kernels: calibration ratio {scale:.2f} "
          f"(this machine vs baseline)", flush=True)

    failed = []
    for name in KERNELS:
        budget = baseline[name] * scale * (1.0 + args.tolerance)
        status = "ok" if times[name] <= budget else "REGRESSED"
        print(f"bench_kernels: {name}: {times[name] * 1e3:.1f} ms vs "
              f"budget {budget * 1e3:.1f} ms — {status}", flush=True)
        if times[name] > budget:
            failed.append(name)

    if failed:
        print(f"bench_kernels: regression in {failed} "
              f"(> {args.tolerance:.0%} over scaled baseline)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
