#!/usr/bin/env python
"""CI chaos-replay gate: the seeded loadgen smoke plan vs the real binary.

Boots ``python -m repro.service --shards 2 --chaos-admin`` and runs the
seeded smoke plan twice against it.  In both runs every fault event
(worker kill, mid-stream truncation, sim-child kill and stall, dropped
connections, shard kill) is POSTed to the supervisor's ``/chaos/faults``
just before its scheduled request; the supervisor kills a shard for
``kill_shard`` and arms every live shard for the rest.  The gate asserts:

* **every request is accounted for** — the verdict passes: each request
  ended 2xx-verified, as a clean structured 4xx/5xx carrying its retry
  hint where required, or as client-detected truncation; a hang, silent
  drop, malformed error body or zero-row close fails the run;
* **replay is bit-identical** — the second run reproduces the identical
  outcome digest;
* **the faults fired** — each run retried at least one request.  The
  retrying client converges a faulted run to the fault-free digest, so
  the retries (printed per endpoint kind) are the only sign of them;
* **the fleet's own record holds** — every ``shard_exit`` the supervisor
  logs to ``<trace-dir>/fleet.log`` is a SIGKILL that a delivered
  ``kill_shard`` (a ``chaos_kill_shard`` log line) accounts for;
* the fleet drains cleanly (SIGTERM exits 0) after all of the above.

Usage:  PYTHONPATH=src python scripts/chaos_replay.py [--trace-dir DIR]
"""

import argparse
import collections
import json
import os
import pathlib
import signal
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.loadgen import (  # noqa: E402
    build_plan,
    evaluate,
    outcome_digest,
    run_plan,
    smoke_spec,
)

#: Keep the stall fault's terminal 504 (and its retry) well inside CI time.
STALL_TIMEOUT_MS = 2000


def boot_fleet(log):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--port", "0",
            "--shards", "2",
            "--workers", "1",
            "--coalesce-ms", "1",
            "--seed", "2026",
            "--admin-port", "0",
            "--chaos-admin",
            "--sim-stall-timeout-ms", str(STALL_TIMEOUT_MS),
            "--no-request-log",
            "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=log,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    announced = json.loads(proc.stdout.readline())
    assert announced.get("event") == "listening", announced
    return proc, announced["host"], announced["port"], announced["admin_port"]


def unaccounted_shard_exits(log_path):
    """``shard_exit`` events no earlier ``chaos_kill_shard`` explains.

    A delivered kill accounts for one later exit of the same shard with
    returncode -9 (SIGKILL); any other exit means a shard died on its own.
    """
    kills = collections.Counter()
    unaccounted = []
    with open(log_path, encoding="utf-8") as handle:
        for line in handle:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(event, dict):
                continue
            if event.get("event") == "chaos_kill_shard":
                kills[event.get("shard")] += 1
            elif event.get("event") == "shard_exit":
                shard = event.get("shard")
                if kills[shard] > 0 and event.get("returncode") == -signal.SIGKILL:
                    kills[shard] -= 1
                else:
                    unaccounted.append(event)
    return unaccounted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--trace-dir", default=str(REPO_ROOT),
        help="where the two trace JSON artifacts and fleet.log land "
        "(default: repo root)",
    )
    args = parser.parse_args(argv)
    trace_dir = pathlib.Path(args.trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    log_path = trace_dir / "fleet.log"

    spec = smoke_spec(include_shard_kill=True)
    plan = build_plan(spec)
    print(
        f"chaos_replay: {len(plan)} planned requests, "
        f"{len(spec.faults)} fault events "
        f"({', '.join(f'{e.action}@{e.at_request}' for e in spec.faults)})",
        flush=True,
    )

    failed = False
    with open(log_path, "w", encoding="utf-8") as log:
        proc, host, port, admin_port = boot_fleet(log)
        try:
            digests = []
            for run in (1, 2):
                trace = run_plan(spec, host, port, plan=plan, admin_port=admin_port)
                verdict = evaluate(trace.records)
                digest = outcome_digest(trace.records)
                retries = collections.Counter()
                for record in trace.records:
                    retries[record.kind] += record.retries
                total_retries = sum(retries.values())
                trace_path = trace_dir / f"chaos_replay_run{run}.json"
                trace.save(str(trace_path))
                print(
                    f"chaos_replay[run {run}]: verdict "
                    f"{'PASS' if verdict.passed else 'FAIL'} "
                    f"{verdict.counts}, {total_retries} retries "
                    f"{dict(sorted((k, n) for k, n in retries.items() if n))}, "
                    f"digest {digest[:16]}…, trace {trace_path}",
                    flush=True,
                )
                if not verdict.passed:
                    for violation in verdict.violations:
                        print(f"chaos_replay: violation: {violation}",
                              file=sys.stderr)
                    failed = True
                if total_retries == 0:
                    print(
                        f"chaos_replay: run {run} retried no request, so no "
                        "fault fired",
                        file=sys.stderr,
                    )
                    failed = True
                digests.append(digest)
            if digests[0] != digests[1]:
                print(
                    f"chaos_replay: replay diverged: {digests[0]} != {digests[1]}",
                    file=sys.stderr,
                )
                failed = True
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                exit_code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
                exit_code = -9
    if exit_code != 0:
        print(f"chaos_replay: fleet exited {exit_code}", file=sys.stderr)
        failed = True
    for event in unaccounted_shard_exits(log_path):
        print(
            f"chaos_replay: shard_exit no delivered kill_shard accounts for: "
            f"{event} (see {log_path})",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("chaos_replay: every request accounted for, replay bit-identical, "
          "every shard exit a delivered kill", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
