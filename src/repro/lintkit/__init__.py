"""repro.lintkit — AST-based repo-specific static analysis.

The library's correctness rests on conventions that plain tests cannot
enforce: every dB↔linear conversion flows through :mod:`repro.utils.units`,
every random stream through :mod:`repro.utils.rng`, every public numeric
parameter through :mod:`repro.utils.validation`.  This package checks those
conventions mechanically using only the stdlib :mod:`ast` module (no
third-party lint dependency), in three tiers:

- **per-file rules** (RP101–RP107, RP204, RP205, RP301/303/304) are pure
  functions of a single module's source, checked in parallel;
- **project rules** (RP201–RP203, RP206, RP302) walk a best-effort call
  graph (:mod:`repro.lintkit.graph`) built from per-module summaries,
  catching path properties: blocking work reachable inside
  ``repro.service`` async defs, unawaited coroutines, nondeterminism
  reachable from cached ``/v1/*`` handlers, and awaits interleaving
  shared-state read-modify-writes;
- **unit rules** (RP301–RP304, :mod:`repro.lintkit.unitrules`) run a
  flow-sensitive physical-units inference (:mod:`repro.lintkit.unitcheck`)
  over every module, seeded from ``Annotated`` unit aliases, the
  ``units.*`` converter signatures and the ``_w/_db/_dbm`` suffix
  convention, and flag dimensionally meaningless arithmetic
  (``snr_db * noise_w``), redundant or wrong conversions, and call
  arguments contradicting annotated parameters.  Select the whole tier
  with ``--select RP3``.

Findings can be exported as SARIF (a JSON document) for code-scanning UIs.

Usage::

    python -m repro.lintkit src tests benchmarks scripts  # the CI gate (exit 1 on findings)
    python -m repro.lintkit --list-rules       # describe the RP-rules
    python -m repro.lintkit src --format sarif --output lint.sarif

Suppress a finding on one line with a trailing comment::

    gain = 10 ** (x / 10)  # lint: ignore[RP101]

See ``docs/static_analysis.md`` for the full rule catalogue with bad/good
examples and the project-graph architecture.
"""

from repro.lintkit.engine import (
    LintStats,
    ModuleContext,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    analyze_paths,
    lint_paths,
    lint_source,
    register,
    register_project,
)
from repro.lintkit.findings import Finding
from repro.lintkit.graph import ModuleSummary, ProjectGraph, summarize_module

# Importing the rule modules populates the registries as a side effect.
from repro.lintkit import rules as _rules  # noqa: F401
from repro.lintkit import projectrules as _projectrules  # noqa: F401
from repro.lintkit import unitrules as _unitrules  # noqa: F401

__all__ = [
    "Finding",
    "LintStats",
    "ModuleContext",
    "ModuleSummary",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "analyze_paths",
    "lint_paths",
    "lint_source",
    "register",
    "register_project",
    "summarize_module",
]
