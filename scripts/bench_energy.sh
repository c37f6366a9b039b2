#!/bin/sh
# Regenerate BENCH_energy.json: the energy-layer performance evidence
# (vectorized grid solve vs scalar loop, cold build vs memo hit).
# Each benchmark keeps pytest-benchmark's summary statistics; the raw
# per-round timings (stats.data) are dropped.
#
# Usage: scripts/bench_energy.sh  [extra pytest args]
set -e
cd "$(dirname "$0")/.."
REPRO_NO_CACHE=0 PYTHONPATH=src python -m pytest \
    benchmarks/test_bench_ebar_table.py \
    --benchmark-only \
    --benchmark-json=BENCH_energy.json \
    -q "$@"
python - <<'PY'
import json

with open("BENCH_energy.json", encoding="utf-8") as handle:
    report = json.load(handle)
for bench in report["benchmarks"]:
    bench["stats"].pop("data", None)
with open("BENCH_energy.json", "w", encoding="utf-8") as handle:
    json.dump(report, handle, indent=4)
PY
echo "wrote BENCH_energy.json"
