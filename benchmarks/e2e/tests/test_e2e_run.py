import json
import re
import subprocess
import sys

import pytest
from conftest import E2E, ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_follows_the_contract():
    assert DECLARED["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        # No gate looser than 15% (20% for set-up): a metric that cannot
        # hold that belongs among the per-layer metrics.
        limit = 0.20 if metric["name"] == "setup_s" else 0.15
        assert 0.0 < metric["bound"] <= limit, metric
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_declared_workloads_are_the_ones_the_generator_knows():
    import traffic

    assert tuple(w["name"] for w in DECLARED["workloads"]) == traffic.WORKLOADS


def test_declared_rates_are_the_rates_the_generator_sends():
    import traffic

    for workload in DECLARED["workloads"]:
        declared = re.search(r"Poisson (\d+) req/s", workload["why"])
        if workload["name"] in traffic.RATES:
            assert declared, workload
            assert float(declared.group(1)) == traffic.RATES[workload["name"]]
        else:
            assert declared is None, workload


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--seconds", "2", "--smoke", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_against_the_real_binary(workload):
    metrics = _run("--workload", workload, "--trace", "0")
    assert list(metrics) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(metrics[name]["value"] > 0.0 for name in metrics)


@pytest.mark.parametrize("workload", ["plan-sweep", "sim-city"])
def test_traced_smoke_emits_every_per_layer_metric(workload):
    metrics = _run("--workload", workload, "--trace", "1")
    assert list(metrics) == [m["name"] for m in DECLARED["per_layer"]]


def test_without_the_repository_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in E2E.glob("*.py"):
        (bare / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "plan-unique"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
