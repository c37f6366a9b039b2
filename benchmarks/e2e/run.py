"""End-to-end benchmark of the planning service and the city simulator.

Boots the real ``python -m repro.service`` binary, drives it from a
single-thread asyncio generator over at most two connections, verifies
every response, and prints one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``) or its per-layer metrics (``--trace 1``).  A detailed
report (sample counts, generator validity, scenario digests, every failed
check) is written to ``.bench_e2e/``.  Exit status 0 means every output
was correct; 1 means a check failed; 2 means the repository is missing.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload plan-unique --seed 2026 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload sim-city --seed 7 --seconds 20 --trace 1
    python3 benchmarks/e2e/run.py --workload plan-sweep --seconds 2 --smoke
"""

import argparse
import json
import os
import pathlib
import signal
import sys
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = ROOT / ".bench_e2e"

WORKLOADS = ("plan-unique", "plan-repeat", "plan-sweep", "sim-city")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2026,
                        help="workload seed: same seed, same requests")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports the per-layer metrics of a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="one boot, short calibration, small scenarios")
    return parser


def select(declared: List[Dict[str, Any]], computed: Dict[str, float]) -> Dict[str, Any]:
    """The declared metrics, by name and unit, in declaration order."""
    missing = [entry["name"] for entry in declared if entry["name"] not in computed]
    if missing:
        raise RuntimeError(f"run did not compute declared metrics {missing}")
    return {
        entry["name"]: {"value": computed[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def _terminate(signum: int, frame: Any) -> None:
    # Unwind through the ``finally`` blocks that stop the servers.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import sut

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    cfg = harness.Config(args.workload, args.seed, args.seconds, args.smoke,
                         OUT / f"run-{os.getpid()}")
    os.sched_setaffinity(0, cfg.generator_cpus)
    with sut.busy_cores(cfg.generator_cpus | cfg.server_cpus):
        if args.trace:
            per_layer = declared["per_layer"]
            report = harness.traced(cfg, [entry["name"] for entry in per_layer])
            metrics = select(per_layer, report["metrics"])
        else:
            report = harness.untraced(cfg)
            metrics = select(declared["end_to_end"], report["metrics"])
    failures = report["failures"]
    if not report["valid"]:
        print(f"run.py: generator lateness p99 "
              f"{report['generator']['generator.lateness_p99_ms']:.3f} ms exceeds "
              f"{harness.LATENESS_LIMIT_MS} ms; this run measured the generator",
              file=sys.stderr)
    for failure in failures[:20]:
        print(f"run.py: FAILED {failure}", file=sys.stderr)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(report, metrics=metrics), indent=2, default=str))
    result = {
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
