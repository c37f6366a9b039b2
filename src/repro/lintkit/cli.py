"""Command-line interface: ``python -m repro.lintkit src tests``.

Exit status 0 when the tree is clean, 1 when findings remain, 2 on usage
errors — the contract both the tier-1 gate (``tests/test_lintkit_clean.py``)
and CI rely on.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lintkit.engine import (
    LintStats,
    all_project_rules,
    all_rules,
    analyze_paths,
)
from repro.lintkit.findings import Finding
from repro.lintkit.sarif import sarif_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for the test suite)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lintkit",
        description="Repo-specific AST lint: unit-safety, RNG discipline, "
        "validation coverage (RP101-RP107), project-wide dataflow rules "
        "over the call graph (RP201-RP206), and flow-sensitive physical-"
        "units dimensional analysis (RP301-RP304; --select RP3).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the findings (in the chosen format) to FILE — "
        "used by CI to upload the report as an artifact",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="worker processes for parsing (default: the CPU count)",
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help="skip the project-graph tier (RP2xx rules)",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print per-rule finding counts and suppression totals",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe the registered rules and exit",
    )
    return parser


def _render(findings: Sequence[Finding], fmt: str) -> str:
    if fmt == "sarif":
        return sarif_json(findings)
    return "\n".join(finding.format() for finding in findings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = "library only" if rule.library_only else "library + tests"
            print(f"{rule.rule_id}  {rule.summary}  [{scope}]")
        for project_rule in all_project_rules():
            print(
                f"{project_rule.rule_id}  {project_rule.summary}  "
                "[project graph]"
            )
        return 0

    select: Optional[List[str]] = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    stats = LintStats()
    try:
        findings = analyze_paths(
            args.paths,
            select=select,
            stats=stats,
            jobs=args.jobs,
            project=not args.no_project,
        )
    except (FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rendered = _render(findings, args.format)
    if rendered:
        print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if args.statistics:
        for rule_id in sorted(stats.per_rule):
            print(f"{rule_id}: {stats.per_rule[rule_id]} finding(s)", file=sys.stderr)
        print(
            f"checked {stats.files} file(s), {len(findings)} finding(s), "
            f"{stats.suppressed} suppressed",
            file=sys.stderr,
        )
    if args.format == "text" and findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
