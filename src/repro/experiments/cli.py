"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    repro-experiments list
    repro-experiments run fig6 [--fast] [--seed N] [--no-check]
    repro-experiments all [--fast] [--jobs N]
    repro-experiments report OUT.md [--fast] [--jobs N]

Every run prints the regenerated table and, unless ``--no-check`` is
given, executes the experiment's shape assertions against the paper.

``all``/``report --jobs N`` fan whole experiments over worker processes;
the results are bit-identical to the serial run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.registry import (
    EXPERIMENTS,
    check_experiment,
    run_experiment,
    run_experiments,
)

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the cooperative "
        "MIMO cognitive-radio paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment ids")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--fast", action="store_true", help="shrink Monte-Carlo sizes")
    run_p.add_argument("--no-check", action="store_true", help="skip shape assertions")
    run_p.add_argument("--json", metavar="PATH", help="also write the result as JSON")
    run_p.add_argument("--csv", metavar="PATH", help="also write the rows as CSV")

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--fast", action="store_true", help="shrink Monte-Carlo sizes")
    all_p.add_argument("--no-check", action="store_true", help="skip shape assertions")
    all_p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes to fan experiments over",
    )

    report_p = sub.add_parser(
        "report", help="run everything and write one markdown report"
    )
    report_p.add_argument("output", help="markdown file to write")
    report_p.add_argument("--fast", action="store_true", help="shrink Monte-Carlo sizes")
    report_p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes to fan experiments over",
    )
    return parser


def _run_one(
    experiment_id: str,
    seed: Optional[int],
    fast: bool,
    no_check: bool,
    json_path: Optional[str] = None,
    csv_path: Optional[str] = None,
) -> bool:
    kwargs = {"fast": fast}
    if seed is not None:
        kwargs["seed"] = seed
    result = run_experiment(experiment_id, **kwargs)
    print(result.to_text())
    print()
    if json_path:
        import json

        with open(json_path, "w") as handle:
            json.dump(result.to_json_dict(), handle, indent=2)
        print(f"[{experiment_id}] wrote {json_path}")
    if csv_path:
        with open(csv_path, "w") as handle:
            handle.write(result.to_csv())
        print(f"[{experiment_id}] wrote {csv_path}")
    if no_check:
        return True
    try:
        check_experiment(result)
    except AssertionError as exc:
        print(f"[{experiment_id}] SHAPE CHECK FAILED: {exc}", file=sys.stderr)
        return False
    print(f"[{experiment_id}] shape checks passed")
    return True


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name, module in sorted(EXPERIMENTS.items()):
            print(f"{name:8s} {module}")
        return 0
    if args.command == "run":
        ok = _run_one(
            args.experiment,
            args.seed,
            args.fast,
            args.no_check,
            json_path=args.json,
            csv_path=args.csv,
        )
        return 0 if ok else 1
    if args.command == "report":
        return _write_report(args.output, args.fast, jobs=args.jobs)
    # all
    failures = 0
    names = sorted(EXPERIMENTS)
    for name, result in zip(names, run_experiments(names, jobs=args.jobs, fast=args.fast)):
        print(result.to_text())
        print()
        if not args.no_check:
            try:
                check_experiment(result)
                print(f"[{name}] shape checks passed")
            except AssertionError as exc:
                print(f"[{name}] SHAPE CHECK FAILED: {exc}", file=sys.stderr)
                failures += 1
        print()
    return 1 if failures else 0


def _write_report(output_path: str, fast: bool, jobs: int = 1) -> int:
    """Run every experiment and write a single markdown report."""
    from repro.experiments.registry import check_experiment

    lines = [
        "# Reproduction report",
        "",
        "Regenerated tables/figures of *Efficient Cooperative MIMO Paradigms "
        "for Cognitive Radio Networks* (Chen, Hong & Chen).",
        "",
    ]
    failures = 0
    names = sorted(EXPERIMENTS)
    for name, result in zip(names, run_experiments(names, jobs=jobs, fast=fast)):
        try:
            check_experiment(result)
            status = "shape checks passed"
        except AssertionError as exc:
            status = f"SHAPE CHECK FAILED: {exc}"
            failures += 1
        lines.append(f"## {name}: {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.to_text())
        lines.append("```")
        lines.append("")
        lines.append(f"*{status}*")
        lines.append("")
    with open(output_path, "w") as handle:
        handle.write("\n".join(lines))
    print(f"wrote {output_path} ({len(EXPERIMENTS)} experiments, {failures} failures)")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
