"""Command-line entry point: ``python -m repro.loadgen``.

Four subcommands::

    repro-loadgen run    --preset smoke | --spec FILE
                         --host H --port P [--admin-port P]
                         [--trace OUT.json] [--time-scale X] [--seed N]
    repro-loadgen replay --trace IN.json --host H --port P [--admin-port P]
                         [--out OUT.json]
    repro-loadgen verify --trace IN.json
    repro-loadgen plan   --preset ... | --spec FILE [--seed N]

``run`` executes a spec against a listening service, writes the recorded
trace, prints the verdict as JSON and exits 0 iff every request was
accounted for.  ``replay`` rebuilds the plan from a trace's embedded spec,
re-runs it, and additionally requires the new outcome digest to equal the
recorded one bit-for-bit (exit 1 on mismatch).  ``verify`` re-judges a
saved trace offline.  ``plan`` prints a plan summary.

A spec's fault events are POSTed to the target's ``/chaos/faults`` at their
scheduled request index, so the target must run with ``--chaos-admin``.
Against a sharded binary pass the supervisor's admin port as
``--admin-port``: it arms every live shard and serves ``kill_shard``.  A
refused event ends the run with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.loadgen.plan import build_plan
from repro.loadgen.presets import smoke_spec
from repro.loadgen.runner import run_plan
from repro.loadgen.spec import TrafficSpec, traffic_from_mapping
from repro.loadgen.trace import Trace, load_trace, outcome_digest
from repro.loadgen.verdict import evaluate

__all__ = ["main"]


def _load_spec(args: argparse.Namespace) -> TrafficSpec:
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = traffic_from_mapping(json.load(handle))
    elif args.preset == "smoke":
        spec = smoke_spec(include_shard_kill=args.admin_port is not None)
    else:
        raise ValueError("need --spec FILE or --preset smoke")
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "time_scale", None) is not None:
        overrides["time_scale"] = args.time_scale
    if overrides:
        from dataclasses import replace

        spec = replace(spec, **overrides)
    return spec


def _report(trace: Trace, extra: Optional[dict] = None) -> int:
    verdict = evaluate(trace.records)
    report = verdict.to_mapping()
    report["outcome_digest"] = outcome_digest(trace.records)
    if extra:
        report.update(extra)
    print(json.dumps(report, sort_keys=True, indent=1))
    return 0 if verdict.passed and not report.get("digest_mismatch") else 1


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    trace = run_plan(spec, args.host, args.port, admin_port=args.admin_port)
    if args.trace is not None:
        trace.save(args.trace)
    return _report(trace)


def _cmd_replay(args: argparse.Namespace) -> int:
    recorded = load_trace(args.trace)
    spec = traffic_from_mapping(recorded.spec)
    replayed = run_plan(spec, args.host, args.port, admin_port=args.admin_port)
    if args.out is not None:
        replayed.save(args.out)
    recorded_digest = outcome_digest(recorded.records)
    replayed_digest = outcome_digest(replayed.records)
    return _report(
        replayed,
        extra={
            "recorded_digest": recorded_digest,
            "digest_mismatch": recorded_digest != replayed_digest,
        },
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    return _report(load_trace(args.trace))


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    plan = build_plan(spec)
    by_kind: dict = {}
    for request in plan:
        by_kind[request.kind] = by_kind.get(request.kind, 0) + 1
    print(
        json.dumps(
            {
                "n_requests": len(plan),
                "duration_s": spec.duration_s,
                "by_kind": by_kind,
                "faults": [event.action for event in spec.faults],
            },
            sort_keys=True,
            indent=1,
        )
    )
    return 0


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default=None, help="traffic spec JSON file")
    parser.add_argument(
        "--preset",
        choices=("smoke",),
        default=None,
        help="built-in spec (ignored when --spec is given)",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed override")


def _add_target_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="service host")
    parser.add_argument(
        "--port", type=int, required=True, help="service port under load"
    )
    parser.add_argument(
        "--admin-port",
        type=int,
        default=None,
        help="shard supervisor admin port: fault events go to its "
        "POST /chaos/faults (which arms every live shard and serves "
        "kill_shard) instead of --port; either needs --chaos-admin",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Deterministic chaos load generator for the planning "
        "service: seeded traffic plans, trace record/replay, and the "
        "every-request-accounted-for verdict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a spec and record a trace")
    _add_spec_args(run)
    _add_target_args(run)
    run.add_argument("--trace", default=None, help="write the trace here")
    run.add_argument(
        "--time-scale",
        type=float,
        default=None,
        help="scale arrival offsets (0 fires as fast as possible)",
    )
    run.set_defaults(func=_cmd_run)

    replay = sub.add_parser(
        "replay", help="re-run a recorded trace and compare digests"
    )
    replay.add_argument("--trace", required=True, help="recorded trace file")
    _add_target_args(replay)
    replay.add_argument("--out", default=None, help="write the replay trace")
    replay.set_defaults(func=_cmd_replay)

    verify = sub.add_parser("verify", help="re-judge a saved trace offline")
    verify.add_argument("--trace", required=True, help="recorded trace file")
    verify.set_defaults(func=_cmd_verify)

    plan = sub.add_parser("plan", help="summarise a spec's plan")
    _add_spec_args(plan)
    plan.add_argument("--admin-port", type=int, default=None, help=argparse.SUPPRESS)
    plan.set_defaults(func=_cmd_plan)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ValueError, OSError) as exc:
        print(f"repro-loadgen: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
