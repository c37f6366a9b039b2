#!/bin/sh
# Regenerate BENCH_sim.json: hold-model event-kernel throughput (1k/5k
# held timers, gated at >= 1M events/sec calibration-scaled), the
# city-scenario scaling curve (200-5000 nodes, each size in a process of
# its own, with its peak RSS and per-phase CPU split) and /v1/simulate
# end-to-end NDJSON streaming throughput.  Every scenario digest must
# equal the committed file's for the same size, seed and duration, or
# nothing is written (--no-gate measures and rewrites regardless).
#
# Usage: scripts/bench_sim.sh  [extra bench_sim.py args]
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src python benchmarks/bench_sim.py "$@"
