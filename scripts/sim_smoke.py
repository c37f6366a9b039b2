#!/usr/bin/env python
"""CI smoke test for `/v1/simulate`: a city-block scenario, streamed twice.

Boots ``python -m repro.service`` as a real subprocess on an ephemeral
port, streams a ~200-node scenario (mobility, battery drain, churn) over
NDJSON twice with the same seed, and asserts the two streams are
bit-identical — including the summary row's digest, which itself commits
to every snapshot.  Also cross-checks the buffered ``/v1/simulate`` path
returns the same rows, then SIGTERMs the server and expects exit 0 with
no ``Traceback`` in the server's stderr.

Usage:  PYTHONPATH=src python scripts/sim_smoke.py [--nodes N]
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
from typing import Dict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import ServiceClient  # noqa: E402

#: Summary digest of SCENARIO at the default 200 nodes (4,272 events), so
#: the smoke run also compares against a committed replay, not only
#: against itself.
GOLDEN_DIGEST = "901d65fd21d9f423add5dbef10057366ec18b77444377b868ac50dde57c0dcc5"

SCENARIO = {
    "arena_m": [800.0, 800.0],
    "duration_s": 40.0,
    "seed": 314,
    "snapshot_interval_s": 5.0,
    "battery_j": 10.0,
    "churn": {"leave_rate_per_node_s": 0.002, "join_rate_per_s": 0.5},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, default=200,
                        help="scenario population (default 200)")
    args = parser.parse_args()
    scenario = dict(SCENARIO, n_nodes=args.nodes)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="sim-smoke-") as scratch:
        log_path = pathlib.Path(scratch) / "server.log"
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.service",
                    "--port",
                    "0",
                    "--workers",
                    "1",
                    "--no-result-cache",
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                cwd=REPO_ROOT,
                env=env,
            )
        try:
            ok = check_server(proc, scenario, args.nodes)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
        stderr = log_path.read_text()
        assert "Traceback" not in stderr, stderr
    print(json.dumps(ok, sort_keys=True))
    return 0


def check_server(
    proc: "subprocess.Popen[str]", scenario: Dict[str, object], nodes: int
) -> Dict[str, object]:
    """Stream twice, cross-check the buffered run, then SIGTERM for exit 0.

    Returns the ``sim_smoke_ok`` event, printed once the server's stderr
    has been checked too.
    """
    assert proc.stdout is not None
    announced = json.loads(proc.stdout.readline())
    assert announced["event"] == "listening", announced
    client = ServiceClient(announced["host"], announced["port"], timeout_s=600.0)

    first = list(client.simulate_stream(scenario))
    second = list(client.simulate_stream(scenario))
    assert first == second, "same-seed streams differ"
    summary = first[-1]
    assert summary["row"] == "summary", summary
    assert summary["digest"] == second[-1]["digest"]
    if nodes == 200:
        assert summary["digest"] == GOLDEN_DIGEST, summary["digest"]
    snapshots = [r for r in first if r.get("row") == "snapshot"]
    assert len(snapshots) == 8, len(snapshots)
    assert summary["delivered"] > 0, summary
    assert summary["joins"] > 0 and summary["leaves"] > 0, summary

    buffered = client.simulate(scenario)
    assert buffered["rows"] == first[:-1], "buffered rows diverge"
    assert buffered["summary"] == summary, "buffered summary diverges"

    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=30.0)
    assert code == 0, f"server exited {code}"
    return {
        "event": "sim_smoke_ok",
        "nodes": nodes,
        "snapshots": len(snapshots),
        "events_processed": summary["events_processed"],
        "delivery_ratio": summary["delivery_ratio"],
        "digest": summary["digest"],
    }


if __name__ == "__main__":
    raise SystemExit(main())
