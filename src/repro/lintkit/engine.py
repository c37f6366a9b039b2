"""Rule registry, suppression handling and the lint driver.

A rule is a subclass of :class:`Rule` registered with the :func:`register`
decorator.  The engine parses each ``*.py`` file once, hands every rule the
same :class:`ModuleContext`, filters findings through per-line suppression
comments (``# lint: ignore[RP101]`` or ``# lint: ignore[RP101, RP105]``)
and returns the surviving findings sorted by location.

Two analysis tiers share that parse:

* **Per-file rules** (:class:`Rule`, the RP1xx family plus RP204/RP205)
  see one module at a time; their results depend only on that file's
  bytes, so files can be checked in parallel.
* **Project rules** (:class:`ProjectRule`, RP201–RP203) see the whole
  tree as a :class:`~repro.lintkit.graph.ProjectGraph`, built from the
  :class:`~repro.lintkit.graph.ModuleSummary` each parse also yields.

:func:`analyze_paths` is the full driver (both tiers, parallel parsing);
:func:`lint_paths` remains the simple per-file-only entry point.  Both run
every file through the same parse → rules → suppression step.
"""

from __future__ import annotations

import ast
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.lintkit.findings import Finding
from repro.lintkit.graph import ModuleSummary, ProjectGraph, summarize_module
from repro.lintkit.unitcheck import infer_module
from repro.utils.sysinfo import available_cpu_count
from repro.utils.validation import check_non_negative_int

__all__ = [
    "ModuleContext",
    "Rule",
    "ProjectRule",
    "register",
    "register_project",
    "all_rules",
    "all_project_rules",
    "split_select",
    "lint_source",
    "lint_paths",
    "analyze_paths",
    "LintStats",
    "PARSE_ERROR_RULE_ID",
]

#: Pseudo-rule id attached to findings for files that fail to parse.
PARSE_ERROR_RULE_ID = "RP000"

#: ``# lint: ignore[RP101]`` / ``# lint: ignore[RP101, RP106]``
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Za-z0-9_\-,\s]+)\]")


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: str
    tree: ast.Module
    lines: Tuple[str, ...]
    is_test: bool

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``'s location."""
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0)) + 1
        return Finding(
            path=self.path, line=line, col=col, rule_id=rule_id, message=message
        )

    def path_endswith(self, *tail: str) -> bool:
        """True if the module path ends with the given components."""
        parts = Path(self.path).parts
        return parts[-len(tail):] == tail


class Rule:
    """Base class for repo-specific rules.

    Subclasses set ``rule_id`` and ``summary`` and implement :meth:`check`.
    ``library_only`` rules skip test modules (``tests/`` trees, ``test_*.py``
    and ``conftest.py``): tests deliberately re-derive conversions and build
    seeded generators as *independent oracles* for the library code, which
    is exactly what the library itself must not do.
    """

    rule_id: str = ""
    summary: str = ""
    library_only: bool = False

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Whether this rule runs on the given module (path-based scoping)."""
        return not (self.library_only and ctx.is_test)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError


class ProjectRule:
    """Base class for whole-project rules (the graph-walking RP2xx tier).

    Unlike :class:`Rule`, a project rule sees every analyzed module at
    once as a :class:`~repro.lintkit.graph.ProjectGraph` and reports on
    *reachability* — properties no single file can witness.  Findings are
    still anchored to concrete (path, line) sites, so the same
    ``# lint: ignore[RP2xx]`` suppression mechanism applies.
    """

    rule_id: str = ""
    summary: str = ""

    def check(self, graph: ProjectGraph) -> Iterable[Finding]:
        """Yield findings over the whole project graph."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}
_PROJECT_REGISTRY: Dict[str, Type[ProjectRule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} must define a rule_id")
    if rule_cls.rule_id in _REGISTRY or rule_cls.rule_id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def register_project(rule_cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a project rule to the project registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} must define a rule_id")
    if rule_cls.rule_id in _REGISTRY or rule_cls.rule_id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _PROJECT_REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def _expand_ids(
    ids: Iterable[str], registries: Sequence[Dict[str, Any]]
) -> List[str]:
    """Expand prefix selections (``RP3`` -> every registered RP3xx id).

    Exact ids pass through; an id matching no registry exactly expands to
    every registered id it prefixes (across the given registries).  Ids
    matching nothing at all pass through unchanged so the caller's
    unknown-id error reports them.
    """
    expanded: List[str] = []
    for rule_id in ids:
        if any(rule_id in registry for registry in registries):
            expanded.append(rule_id)
            continue
        matches = sorted(
            known
            for registry in registries
            for known in registry
            if known.startswith(rule_id)
        )
        if matches:
            expanded.extend(matches)
        else:
            expanded.append(rule_id)
    return expanded


def all_project_rules(
    select: Optional[Iterable[str]] = None,
) -> List[ProjectRule]:
    """Instantiate registered project rules, optionally restricted.

    Prefix ids expand (``RP2`` selects every registered RP2xx project
    rule); see :func:`split_select` for mixed-tier selections.

    Raises
    ------
    KeyError
        If ``select`` names an unknown project rule id.
    """
    if select is None:
        ids: List[str] = sorted(_PROJECT_REGISTRY)
    else:
        ids = _expand_ids(select, [_PROJECT_REGISTRY])
        unknown = [rule_id for rule_id in ids if rule_id not in _PROJECT_REGISTRY]
        if unknown:
            raise KeyError(
                f"unknown project rule id(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(_PROJECT_REGISTRY))}"
            )
    return [_PROJECT_REGISTRY[rule_id]() for rule_id in ids]


def split_select(
    select: Optional[Iterable[str]],
) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """Partition a ``--select`` list into (per-file ids, project ids).

    ``None`` passes through as ``(None, None)`` — "all of both".  With an
    explicit selection, either half may come back as an *empty list*,
    meaning "run none of that tier".  Prefix ids expand against both
    registries first, so ``--select RP3`` runs the whole RP3xx family
    (per-file RP301/RP303/RP304 plus the project-tier RP302).

    Raises
    ------
    KeyError
        If any id is unknown to both registries.
    """
    if select is None:
        return None, None
    file_ids: List[str] = []
    project_ids: List[str] = []
    unknown: List[str] = []
    for rule_id in _expand_ids(select, [_REGISTRY, _PROJECT_REGISTRY]):
        if rule_id in _REGISTRY:
            file_ids.append(rule_id)
        elif rule_id in _PROJECT_REGISTRY:
            project_ids.append(rule_id)
        else:
            unknown.append(rule_id)
    if unknown:
        known = sorted(list(_REGISTRY) + list(_PROJECT_REGISTRY))
        raise KeyError(
            f"unknown rule id(s) {', '.join(unknown)}; known: {', '.join(known)}"
        )
    return file_ids, project_ids


def all_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate registered rules, optionally restricted to ``select`` ids.

    Prefix ids expand against the per-file registry (``RP1`` selects all
    RP1xx rules).

    Raises
    ------
    KeyError
        If ``select`` names an unknown rule id.
    """
    if select is None:
        ids: List[str] = sorted(_REGISTRY)
    else:
        ids = _expand_ids(select, [_REGISTRY])
        unknown = [rule_id for rule_id in ids if rule_id not in _REGISTRY]
        if unknown:
            raise KeyError(
                f"unknown rule id(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(_REGISTRY))}"
            )
    return [_REGISTRY[rule_id]() for rule_id in ids]


#: Line number -> rule ids suppressed on that line.
_Suppressions = Dict[int, FrozenSet[str]]


def _suppressions(lines: Sequence[str]) -> _Suppressions:
    """Per-line suppressed rule ids (1-based line numbers)."""
    table: _Suppressions = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            ids = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            if ids:
                table[lineno] = ids
    return table


def _is_test_path(path: Path) -> bool:
    name = path.name
    if name.startswith("test_") or name == "conftest.py":
        return True
    return "tests" in path.parts


@dataclass
class LintStats:
    """Mutable run statistics (files seen, findings suppressed)."""

    files: int = 0
    suppressed: int = 0
    per_rule: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_non_negative_int(self.files, "files")
        check_non_negative_int(self.suppressed, "suppressed")

    def count(self, finding: Finding) -> None:
        """Tally one (unsuppressed) finding into the per-rule counters."""
        self.per_rule[finding.rule_id] = self.per_rule.get(finding.rule_id, 0) + 1

    def add(self, findings: Iterable[Finding], suppressed: int) -> None:
        """Tally one file's surviving findings and suppressed count."""
        self.suppressed += suppressed
        for finding in findings:
            self.count(finding)


def _check_module(
    source: str, path: str, rules: Sequence[Rule], is_test: bool
) -> Tuple[List[Finding], int, Optional[ast.Module], _Suppressions]:
    """Parse once, run the per-file rules and drop suppressed findings.

    Returns the sorted surviving findings, the suppressed count, and the
    parsed tree with its suppression table for the project tier.
    Unparseable source yields a single ``RP000`` finding and no tree.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        parse_error = Finding(
            path=path,
            line=int(exc.lineno or 1),
            col=int(exc.offset or 0) + 1 if exc.offset else 1,
            rule_id=PARSE_ERROR_RULE_ID,
            message=f"could not parse file: {exc.msg}",
        )
        return [parse_error], 0, None, {}
    lines = tuple(source.splitlines())
    ctx = ModuleContext(path=path, tree=tree, lines=lines, is_test=is_test)
    suppressions = _suppressions(lines)
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if finding.rule_id in suppressions.get(finding.line, frozenset()):
                suppressed += 1
            else:
                findings.append(finding)
    return sorted(findings), suppressed, tree, suppressions


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    is_test: Optional[bool] = None,
    stats: Optional[LintStats] = None,
) -> List[Finding]:
    """Lint one module given as source text; the core entry point.

    ``is_test`` defaults to a path-based guess (``tests/`` trees,
    ``test_*.py``, ``conftest.py``).  Unparseable source yields a single
    ``RP000`` finding rather than raising, so one bad file cannot hide the
    findings of the rest of a run.
    """
    active = list(rules) if rules is not None else all_rules()
    if is_test is None:
        is_test = _is_test_path(Path(path))
    findings, suppressed, _, _ = _check_module(source, path, active, bool(is_test))
    if stats is not None:
        stats.add(findings, suppressed)
    return findings


def _iter_python_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return files


def lint_paths(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    stats: Optional[LintStats] = None,
) -> List[Finding]:
    """Lint files and directory trees; directories are walked for ``*.py``."""
    rules = all_rules(select)
    findings: List[Finding] = []
    for file_path in _iter_python_files(paths):
        if stats is not None:
            stats.files += 1
        source = file_path.read_text(encoding="utf-8")
        findings.extend(
            lint_source(source, path=str(file_path), rules=rules, stats=stats)
        )
    return sorted(findings)


# --------------------------------------------------------------------- #
# Full analysis driver: per-file rules + project graph                  #
# --------------------------------------------------------------------- #

#: One file's result: surviving findings, suppressed count, and the
#: module summary the project graph is built from (None if unparseable).
_FileResult = Tuple[List[Finding], int, Optional[ModuleSummary]]


def _analyze_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
    root: Optional[str],
) -> _FileResult:
    """Check one file and distil it into a :class:`ModuleSummary`."""
    is_test = _is_test_path(Path(path))
    findings, suppressed, tree, suppressions = _check_module(
        source, path, rules, is_test
    )
    if tree is None:
        return findings, suppressed, None
    summary = summarize_module(
        tree,
        path,
        is_test,
        suppressions=suppressions,
        root=root,
        unit_facts=infer_module(tree),
    )
    return findings, suppressed, summary


#: (path, source, per-file select ids, module root) for one worker call.
_WorkItem = Tuple[str, str, Optional[List[str]], Optional[str]]


def _analyze_worker(item: _WorkItem) -> _FileResult:
    """Process-pool worker: analyze one already-read file."""
    path, source, file_ids, root = item
    import repro.lintkit  # noqa: F401  (populate registries in fresh workers)

    return _analyze_source(source, path, all_rules(file_ids), root)


def analyze_paths(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    stats: Optional[LintStats] = None,
    jobs: Optional[int] = None,
    project: bool = True,
    root: Optional[str] = None,
) -> List[Finding]:
    """Run both analysis tiers over files/trees, in parallel.

    Parameters
    ----------
    jobs:
        Worker processes for parsing (default: the sysinfo CPU count;
        values <= 1 parse serially in-process).
    project:
        Run the graph tier (RP2xx).  Per-file results are unaffected.
    root:
        Directory that module dotted names are computed relative to
        (default: heuristic based on ``src``/``repro`` path components).
    """
    file_ids, project_ids = split_select(
        list(select) if select is not None else None
    )
    sources: Dict[str, str] = {}
    for file_path in _iter_python_files(paths):
        if stats is not None:
            stats.files += 1
        sources[str(file_path)] = file_path.read_text(encoding="utf-8")
    items: List[_WorkItem] = [
        (path, source, file_ids, root) for path, source in sources.items()
    ]

    worker_count = jobs if jobs is not None else available_cpu_count()
    results: List[_FileResult]
    if worker_count > 1 and len(items) > 1:
        with ProcessPoolExecutor(
            max_workers=min(worker_count, len(items))
        ) as executor:
            results = list(executor.map(_analyze_worker, items))
    else:
        rules = all_rules(file_ids)
        results = [
            _analyze_source(source, path, rules, root)
            for path, source, _, _ in items
        ]

    findings: List[Finding] = []
    summaries: List[ModuleSummary] = []
    for file_findings, suppressed, summary in results:
        findings.extend(file_findings)
        if stats is not None:
            stats.add(file_findings, suppressed)
        if summary is not None:
            summaries.append(summary)

    run_project = project and (project_ids is None or bool(project_ids))
    if run_project:
        graph = ProjectGraph(summaries)
        suppression_index: Dict[Tuple[str, int], FrozenSet[str]] = {}
        for summary in summaries:
            for line, ids in summary.suppressions:
                suppression_index[(summary.path, line)] = frozenset(ids)
        for project_rule in all_project_rules(project_ids):
            for finding in project_rule.check(graph):
                covered = suppression_index.get((finding.path, finding.line))
                if covered is not None and finding.rule_id in covered:
                    if stats is not None:
                        stats.suppressed += 1
                    continue
                findings.append(finding)
                if stats is not None:
                    stats.count(finding)
    return sorted(findings)
