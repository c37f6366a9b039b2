#!/usr/bin/env bash
# One-shot static-analysis gate: repo lint rules + ruff + strict typing.
#
# Usage:  scripts/lint.sh
#
# Runs, in order:
#   1. repro.lintkit (always available — stdlib + numpy; per-file rules
#      RP101-RP107/RP204/RP205, project-graph rules RP201-RP203/RP206/RP302
#      and the RP301/RP303/RP304 dimensional-analysis rules) over
#      src, tests, benchmarks and scripts
#   2. ruff check    (skipped with a notice when ruff is not installed)
#   3. mypy --strict on the typed core (skipped when mypy is not installed)
#
# Exits non-zero if any tool that *did* run reported findings.  CI installs
# ruff and mypy so nothing is skipped there; the local dev container may
# lack them, in which case the lintkit pass still gates the repo rules.

set -u
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

status=0

echo "== repro.lintkit =="
python -m repro.lintkit src tests benchmarks scripts --statistics || status=1

echo
echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests || status=1
elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check src tests || status=1
else
    echo "ruff not installed; skipping (CI runs it)"
fi

echo
echo "== mypy --strict (utils, energy, lintkit, service, network, mac, simulation, scenario, loadgen) =="
if command -v mypy >/dev/null 2>&1 || python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy --strict \
        -p repro.utils -p repro.energy -p repro.lintkit -p repro.service \
        -p repro.network -p repro.mac -p repro.simulation -p repro.scenario \
        -p repro.loadgen || status=1
else
    echo "mypy not installed; skipping (CI runs it)"
fi

exit "$status"
