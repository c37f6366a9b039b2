"""Tier-1 gate: the repository's own tree must be lint-clean.

``python -m repro.lintkit src tests benchmarks scripts`` exiting 0 is the
contract this test pins.  If a rule fires here, either fix the flagged
code or — when the flagged line is deliberately exempt (see
``docs/static_analysis.md``) — add a ``# lint: ignore[RPxxx]`` suppression
with a comment explaining why.
"""

from pathlib import Path

from repro.lintkit import LintStats, analyze_paths, lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent

ALL_TREES = ["src", "tests", "benchmarks", "scripts"]


def test_src_tree_is_clean():
    findings = lint_paths([str(REPO_ROOT / "src")])
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_tests_tree_is_clean():
    findings = lint_paths([str(REPO_ROOT / "tests")])
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_benchmarks_tree_is_clean():
    findings = lint_paths([str(REPO_ROOT / "benchmarks")])
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_scripts_tree_is_clean():
    findings = lint_paths([str(REPO_ROOT / "scripts")])
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_full_run_matches_cli_contract():
    """The exact invocation CI runs: all four trees, both analysis tiers
    (per-file RP1xx/RP204/RP205 plus the project-graph RP2xx rules),
    zero findings."""
    stats = LintStats()
    findings = analyze_paths(
        [str(REPO_ROOT / tree) for tree in ALL_TREES],
        stats=stats,
        jobs=1,
    )
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)
    # Sanity: the walk really visited the tree (not an empty-glob pass),
    # and the deliberate exemptions are the only thing keeping it quiet.
    assert stats.files > 100
    assert stats.suppressed > 0
