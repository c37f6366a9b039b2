#!/bin/sh
# Regenerate BENCH_sim.json: hold-model event-kernel throughput (1k/5k
# held timers, gated at >= 1M events/sec calibration-scaled), the
# in-process city-scenario scaling curve (200-2000 nodes) and
# /v1/simulate end-to-end NDJSON streaming throughput.
#
# Usage: scripts/bench_sim.sh  [extra bench_sim.py args]
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src python benchmarks/bench_sim.py "$@"
