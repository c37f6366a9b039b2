"""Project-wide import and call graph over per-module AST summaries.

The RP1xx rules see one file at a time; the RP2xx *project* rules need to
know what a function reaches two or three calls away — a ``time.sleep``
buried in a helper is just as fatal to the event loop as one written in the
handler itself.  This module provides the substrate:

* :func:`summarize_module` distils one parsed module into a
  :class:`ModuleSummary` — imports, classes (with best-effort ``self.attr``
  types), and every function/method with its call sites.  Summaries are
  frozen plain-data records, so the parallel driver's worker processes
  hand them back by pickling.
* :class:`ProjectGraph` stitches summaries together and resolves call
  sites to project functions: module-level functions, methods (through
  ``self``, single inheritance and constructor-assigned attribute types),
  classes (to their ``__init__``), ``functools.partial`` wrappers and
  executor-submitted callables.

Resolution is deliberately *best effort*: anything the resolver cannot
identify (dynamic dispatch, callables stored in data structures, foreign
libraries) simply produces no edge, so analysis degrades to silence, never
to a false finding or a crash.

Call sites carry execution-context flags the rules interpret differently:

``awaited``
    The call is directly under ``await`` — an awaited ``async def`` runs
    its body on the caller's event loop (blocking propagates through it).
``stmt_expr``
    The call is a bare expression statement whose value nobody keeps —
    the shape of an unawaited coroutine or a fire-and-forget task.
``offloaded``
    The callable was *passed to* an executor (``pool.submit(fn, ...)``,
    ``loop.run_in_executor(ex, fn, ...)``): it runs off the event loop, so
    blocking does not propagate (RP201), but its results still feed the
    response, so determinism taint does (RP203).
``deferred``
    The callable was wrapped, not called (``functools.partial``,
    ``asyncio.create_task``, ``Thread(target=...)``, ``call_later``):
    where it eventually runs is unknown, so blocking analysis skips it and
    taint analysis follows it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lintkit.unitcheck import ModuleUnitFacts
from repro.utils.validation import check_non_negative_int

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleSummary",
    "ProjectGraph",
    "FuncKey",
    "module_name_for_path",
    "summarize_module",
    "dotted_name",
]

#: (module, qualname) — the graph-wide identity of one function.
FuncKey = Tuple[str, str]

#: Terminal attribute names that submit their callable argument to an
#: executor (the callable runs off the event loop).
_OFFLOAD_ATTRS = frozenset({"run_in_executor", "submit"})

#: Terminal names that wrap a callable for later, elsewhere execution.
_DEFER_NAMES = frozenset(
    {
        "partial",
        "create_task",
        "ensure_future",
        "call_soon",
        "call_later",
        "call_soon_threadsafe",
        "call_at",
        "Thread",
        "Timer",
    }
)


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted form of a name/attribute chain (else ``""``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def module_name_for_path(path: str, root: Optional[str] = None) -> str:
    """Dotted module name for a file path.

    Preference order: relative to ``root`` when given; the components after
    the last ``src`` directory (the repo layout); the components from the
    first ``repro`` onward; otherwise every component.  ``__init__.py``
    maps to its package.
    """
    p = Path(path)
    parts: Tuple[str, ...] = p.parts
    if root is not None:
        try:
            parts = p.resolve().relative_to(Path(root).resolve()).parts
        except ValueError:
            parts = p.parts
    elif "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    if not parts:
        return p.stem
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    pieces = [part for part in parts[:-1] if part not in (".", "..")]
    if leaf != "__init__":
        pieces.append(leaf)
    return ".".join(pieces) if pieces else leaf


# --------------------------------------------------------------------- #
# Summary data model                                                    #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CallSite:
    """One call (or submitted/deferred callable reference) in a function.

    ``arg_units``/``kwarg_units`` carry the units the RP3xx checker
    inferred for the call's arguments (``""`` = unknown); they are empty
    unless at least one argument had a known unit.
    """

    callee: str
    line: int
    col: int
    awaited: bool = False
    stmt_expr: bool = False
    offloaded: bool = False
    deferred: bool = False
    first_arg_none: bool = False
    arg_units: Tuple[str, ...] = ()
    kwarg_units: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        check_non_negative_int(self.line, "line")
        check_non_negative_int(self.col, "col")


@dataclass(frozen=True)
class FunctionInfo:
    """One function, method or nested function and its call sites.

    ``params``/``param_units``/``return_unit`` are the RP3xx unit facts
    declared by the function's ``Annotated`` signature (``""`` = none);
    ``attr_reads``/``attr_writes`` record every ``self.<attr>`` access
    with its line, for the RP206 await-interleaving race check.
    """

    qualname: str
    name: str
    line: int
    col: int
    is_async: bool
    cls: Optional[str]
    calls: Tuple[CallSite, ...]
    params: Tuple[str, ...] = ()
    param_units: Tuple[str, ...] = ()
    return_unit: str = ""
    attr_reads: Tuple[Tuple[str, int], ...] = ()
    attr_writes: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        check_non_negative_int(self.line, "line")
        check_non_negative_int(self.col, "col")


@dataclass(frozen=True)
class ClassInfo:
    """One class: bases (as written) and constructor-assigned attr types."""

    name: str
    bases: Tuple[str, ...]
    attr_types: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project graph needs to know about one module."""

    path: str
    module: str
    is_test: bool
    imports: Tuple[Tuple[str, str], ...] = ()
    functions: Tuple[FunctionInfo, ...] = ()
    classes: Tuple[ClassInfo, ...] = ()
    suppressions: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()


# --------------------------------------------------------------------- #
# Summarization (one parsed module -> ModuleSummary)                    #
# --------------------------------------------------------------------- #


def _import_bindings(tree: ast.Module, module: str) -> List[Tuple[str, str]]:
    """``local name -> dotted target`` for every top-of-scope import."""
    bindings: List[Tuple[str, str]] = []
    package = module.rsplit(".", 1)[0] if "." in module else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    bindings.append((alias.asname, alias.name))
                else:
                    # ``import a.b`` binds ``a``; attribute chains resolve
                    # through progressively longer module prefixes.
                    bindings.append((alias.name.split(".")[0], alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: climb from the containing package.
                anchor = module.split(".")
                # ``from . import x`` inside pkg.mod anchors at pkg.
                anchor = anchor[: len(anchor) - node.level] if len(anchor) >= node.level else []
                prefix = ".".join(anchor)
                base = f"{prefix}.{base}" if base and prefix else (base or prefix)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                bindings.append((alias.asname or alias.name, target))
    return bindings


class _CallCollector(ast.NodeVisitor):
    """Collect call sites inside one function body (nested defs excluded)."""

    def __init__(self) -> None:
        self.calls: List[CallSite] = []
        self._await_values: Set[int] = set()
        self._stmt_values: Set[int] = set()

    def collect(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> Tuple[CallSite, ...]:
        for stmt in fn.body:
            self._visit_stmt(stmt)
        return tuple(self.calls)

    # -- statement walk that stops at nested function/class definitions -- #

    def _visit_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are summarized separately
        if isinstance(node, ast.Expr):
            value = node.value
            if isinstance(value, ast.Await):
                if isinstance(value.value, ast.Call):
                    self._await_values.add(id(value.value))
            elif isinstance(value, ast.Call):
                self._stmt_values.add(id(value))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._visit_stmt(child)
            else:
                self._visit_expr(child)

    def _visit_expr(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            self._await_values.add(id(node.value))
        if isinstance(node, ast.Call):
            self._record(node)
        for child in ast.iter_child_nodes(node):
            self._visit_expr(child)

    # -- one call -> CallSite(s) -- #

    def _record(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        if not callee:
            return
        terminal = callee.split(".")[-1]
        first_arg_none = not node.args or (
            isinstance(node.args[0], ast.Constant) and node.args[0].value is None
        )
        self.calls.append(
            CallSite(
                callee=callee,
                line=int(node.lineno),
                col=int(node.col_offset) + 1,
                awaited=id(node) in self._await_values,
                stmt_expr=id(node) in self._stmt_values,
                first_arg_none=first_arg_none,
            )
        )
        # Callable references handed to executors / wrappers become their
        # own (offloaded/deferred) call sites.
        if terminal in _OFFLOAD_ATTRS or terminal in _DEFER_NAMES:
            offload = terminal in _OFFLOAD_ATTRS
            candidates: List[ast.expr] = list(node.args)
            candidates.extend(
                kw.value
                for kw in node.keywords
                if kw.arg in ("target", "func", "callback")
            )
            for arg in candidates:
                ref = dotted_name(arg)
                if not ref:
                    continue
                self.calls.append(
                    CallSite(
                        callee=ref,
                        line=int(arg.lineno),
                        col=int(arg.col_offset) + 1,
                        offloaded=offload,
                        deferred=not offload,
                    )
                )


def _self_attr_types(cls: ast.ClassDef) -> Tuple[Tuple[str, str], ...]:
    """``self.<attr> = ClassName(...)`` assignments across all methods."""
    types: Dict[str, str] = {}
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(method):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if not isinstance(value, ast.Call):
                continue
            ctor = dotted_name(value.func)
            if not ctor:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in types
                ):
                    types[target.attr] = ctor
    return tuple(sorted(types.items()))


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _self_attr_accesses(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Tuple[Tuple[Tuple[str, int], ...], Tuple[Tuple[str, int], ...]]:
    """Every ``self.<attr>`` (read, write) in a body, with line numbers.

    Nested defs are excluded (they are summarized separately); an augmented
    assignment counts as both a read and a write — that is exactly the
    read-modify-write shape RP206 looks for.
    """
    reads: List[Tuple[str, int]] = []
    writes: List[Tuple[str, int]] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.AugAssign) and _is_self_attr(node.target):
            target = node.target
            assert isinstance(target, ast.Attribute)
            reads.append((target.attr, int(target.lineno)))
            writes.append((target.attr, int(target.lineno)))
            visit(node.value)
            return
        if _is_self_attr(node):
            assert isinstance(node, ast.Attribute)
            if isinstance(node.ctx, ast.Load):
                reads.append((node.attr, int(node.lineno)))
            else:
                writes.append((node.attr, int(node.lineno)))
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in fn.body:
        visit(stmt)
    return tuple(reads), tuple(writes)


def _attach_unit_facts(
    site: CallSite, call_units: Mapping[Tuple[int, int, str], Any]
) -> CallSite:
    fact = call_units.get((site.line, site.col, site.callee))
    if fact is None:
        return site
    return replace(
        site, arg_units=tuple(fact.arg_units), kwarg_units=tuple(fact.kwarg_units)
    )


def _summarize_functions(
    body: Sequence[ast.stmt],
    prefix: str,
    cls: Optional[str],
    call_units: Mapping[Tuple[int, int, str], Any],
    fn_units: Mapping[str, Any],
) -> Iterator[FunctionInfo]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}" if prefix else node.name
            calls = _CallCollector().collect(node)
            if call_units:
                calls = tuple(
                    _attach_unit_facts(site, call_units) for site in calls
                )
            units = fn_units.get(qualname)
            reads, writes = _self_attr_accesses(node)
            yield FunctionInfo(
                qualname=qualname,
                name=node.name,
                line=int(node.lineno),
                col=int(node.col_offset) + 1,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                cls=cls,
                calls=calls,
                params=tuple(units.params) if units is not None else (),
                param_units=tuple(units.param_units) if units is not None else (),
                return_unit=units.return_unit if units is not None else "",
                attr_reads=reads,
                attr_writes=writes,
            )
            # Nested defs: resolvable as ``<outer>.<locals>.<inner>``.
            yield from _summarize_functions(
                node.body, f"{qualname}.<locals>.", cls, call_units, fn_units
            )
        elif isinstance(node, ast.ClassDef):
            class_prefix = f"{prefix}{node.name}." if prefix else f"{node.name}."
            yield from _summarize_functions(
                node.body, class_prefix, node.name, call_units, fn_units
            )


def summarize_module(
    tree: ast.Module,
    path: str,
    is_test: bool,
    suppressions: Optional[Mapping[int, FrozenSet[str]]] = None,
    root: Optional[str] = None,
    unit_facts: Optional[ModuleUnitFacts] = None,
) -> ModuleSummary:
    """Distil one parsed module into a :class:`ModuleSummary`.

    ``unit_facts`` (from :func:`repro.lintkit.unitcheck.infer_module`)
    folds the RP3xx unit signatures and call-argument units into the
    summary, keyed back to call sites by ``(line, col, callee)``.
    """
    module = module_name_for_path(path, root=root)
    call_units: Dict[Tuple[int, int, str], Any] = {}
    fn_units: Dict[str, Any] = {}
    if unit_facts is not None:
        call_units = {
            (fact.line, fact.col, fact.callee): fact for fact in unit_facts.calls
        }
        fn_units = {sig.qualname: sig for sig in unit_facts.functions}
    classes = tuple(
        ClassInfo(
            name=node.name,
            bases=tuple(
                filter(None, (dotted_name(base) for base in node.bases))
            ),
            attr_types=_self_attr_types(node),
        )
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    )
    suppression_items: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
    if suppressions:
        suppression_items = tuple(
            (line, tuple(sorted(ids))) for line, ids in sorted(suppressions.items())
        )
    return ModuleSummary(
        path=path,
        module=module,
        is_test=is_test,
        imports=tuple(_import_bindings(tree, module)),
        functions=tuple(
            _summarize_functions(tree.body, "", None, call_units, fn_units)
        ),
        classes=classes,
        suppressions=suppression_items,
    )


# --------------------------------------------------------------------- #
# The project graph                                                     #
# --------------------------------------------------------------------- #


@dataclass
class _Edge:
    """One resolved call edge, kept with the site that produced it."""

    target: FuncKey
    site: CallSite


@dataclass
class _Module:
    summary: ModuleSummary
    imports: Dict[str, str] = field(default_factory=dict)


class ProjectGraph:
    """Symbol tables + call-edge resolution over a set of module summaries."""

    #: Bound on re-export chases and base-class walks (cycle safety).
    _MAX_HOPS = 8

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self._modules: Dict[str, _Module] = {}
        self._functions: Dict[FuncKey, FunctionInfo] = {}
        self._classes: Dict[Tuple[str, str], ClassInfo] = {}
        for summary in summaries:
            entry = _Module(summary=summary, imports=dict(summary.imports))
            self._modules[summary.module] = entry
            for fn in summary.functions:
                self._functions[(summary.module, fn.qualname)] = fn
            for cls in summary.classes:
                self._classes[(summary.module, cls.name)] = cls

    # -- inventory ----------------------------------------------------- #

    @property
    def modules(self) -> Dict[str, ModuleSummary]:
        return {name: entry.summary for name, entry in self._modules.items()}

    def functions(self) -> Iterator[Tuple[str, FunctionInfo]]:
        """Every known function as ``(module, info)``."""
        for (module, _), info in sorted(self._functions.items()):
            yield module, info

    def function(self, key: FuncKey) -> Optional[FunctionInfo]:
        """The function behind a ``(module, qualname)`` key, if known."""
        return self._functions.get(key)

    def summary(self, module: str) -> Optional[ModuleSummary]:
        """The summary of a module by dotted name, if analyzed."""
        entry = self._modules.get(module)
        return entry.summary if entry is not None else None

    def is_suppressed(self, module: str, line: int, rule_id: str) -> bool:
        """True when a ``# lint: ignore[...]`` covers (module, line)."""
        entry = self._modules.get(module)
        if entry is None:
            return False
        for sup_line, ids in entry.summary.suppressions:
            if sup_line == line and rule_id in ids:
                return True
        return False

    # -- resolution ---------------------------------------------------- #

    def _import_target(self, module: str, name: str) -> Optional[str]:
        entry = self._modules.get(module)
        if entry is None:
            return None
        return entry.imports.get(name)

    def _resolve_symbol(
        self, module: str, name: str, hops: int = 0
    ) -> Optional[Tuple[str, str]]:
        """``(defining module, symbol)`` for a name visible in ``module``.

        Chases re-exports (``from repro.x import f`` in an ``__init__``)
        up to ``_MAX_HOPS`` deep.
        """
        if hops > self._MAX_HOPS:
            return None
        if (module, name) in self._functions or (module, name) in self._classes:
            return module, name
        target = self._import_target(module, name)
        if target is None:
            return None
        if target in self._modules:
            return None  # a module object, not a callable symbol
        if "." in target:
            target_mod, symbol = target.rsplit(".", 1)
            if target_mod in self._modules:
                return self._resolve_symbol(target_mod, symbol, hops + 1)
        return None

    def _resolve_class(
        self, module: str, dotted: str, hops: int = 0
    ) -> Optional[Tuple[str, ClassInfo]]:
        if hops > self._MAX_HOPS:
            return None
        parts = dotted.split(".")
        if len(parts) == 1:
            located = self._resolve_symbol(module, parts[0])
            if located is not None and located in self._classes:
                return located[0], self._classes[located]
            return None
        head_target = self._import_target(module, parts[0])
        if head_target is not None and head_target in self._modules:
            return self._resolve_class(
                head_target, ".".join(parts[1:]), hops + 1
            )
        return None

    def _method(
        self, module: str, class_name: str, method: str, hops: int = 0
    ) -> Optional[FuncKey]:
        """Find ``method`` on a class, walking project-resolvable bases."""
        if hops > self._MAX_HOPS:
            return None
        key = (module, f"{class_name}.{method}")
        if key in self._functions:
            return key
        cls = self._classes.get((module, class_name))
        if cls is None:
            return None
        for base in cls.bases:
            located = self._resolve_class(module, base, hops + 1)
            if located is not None:
                found = self._method(located[0], located[1].name, method, hops + 1)
                if found is not None:
                    return found
        return None

    def _attr_type(
        self, module: str, class_name: str, attr: str, hops: int = 0
    ) -> Optional[Tuple[str, ClassInfo]]:
        """The class a ``self.<attr>`` was constructed as, if recorded."""
        if hops > self._MAX_HOPS:
            return None
        cls = self._classes.get((module, class_name))
        if cls is None:
            return None
        for name, ctor in cls.attr_types:
            if name == attr:
                return self._resolve_class(module, ctor)
        for base in cls.bases:
            located = self._resolve_class(module, base, hops + 1)
            if located is not None:
                found = self._attr_type(located[0], located[1].name, attr, hops + 1)
                if found is not None:
                    return found
        return None

    def _callable_key(self, module: str, symbol: str) -> Optional[FuncKey]:
        """A function key for a module-level symbol (class -> ``__init__``)."""
        if (module, symbol) in self._functions:
            return module, symbol
        if (module, symbol) in self._classes:
            init = self._method(module, symbol, "__init__")
            return init
        return None

    def resolve(
        self, module: str, caller: FunctionInfo, callee: str
    ) -> Optional[FuncKey]:
        """Resolve one call site to a project function key (best effort)."""
        parts = callee.split(".")
        # self.method() / self.attr.method()
        if parts[0] == "self" and caller.cls is not None:
            if len(parts) == 2:
                return self._method(module, caller.cls, parts[1])
            if len(parts) == 3:
                located = self._attr_type(module, caller.cls, parts[1])
                if located is not None:
                    return self._method(located[0], located[1].name, parts[2])
            return None
        # bare name: nested def, module-level function/class, or import
        if len(parts) == 1:
            nested = (module, f"{caller.qualname}.<locals>.{parts[0]}")
            if nested in self._functions:
                return nested
            located = self._resolve_symbol(module, parts[0])
            if located is not None:
                return self._callable_key(located[0], located[1])
            return None
        # dotted: walk the head binding, then the remainder
        head_target = self._import_target(module, parts[0])
        if head_target is not None:
            if head_target in self._modules:
                if len(parts) == 2:
                    located = self._resolve_symbol(head_target, parts[1])
                    if located is not None:
                        return self._callable_key(located[0], located[1])
                elif len(parts) == 3:
                    found = self._method(head_target, parts[1], parts[2])
                    if found is not None:
                        return found
            elif "." in head_target and len(parts) == 2:
                # ``from pkg import Class`` then ``Class.method()``
                target_mod, symbol = head_target.rsplit(".", 1)
                if target_mod in self._modules and (
                    target_mod, symbol
                ) in self._classes:
                    return self._method(target_mod, symbol, parts[1])
        # ClassName.method() with a locally defined class
        if (module, parts[0]) in self._classes and len(parts) == 2:
            return self._method(module, parts[0], parts[1])
        # Fully qualified module path written out (``pkg.mod.func()``)
        for split in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:split])
            if mod_name in self._modules:
                remainder = parts[split:]
                if len(remainder) == 1:
                    return self._callable_key(mod_name, remainder[0])
                if len(remainder) == 2:
                    return self._method(mod_name, remainder[0], remainder[1])
                return None
        return None

    def edges(
        self,
        key: FuncKey,
        include_offloaded: bool = False,
        include_deferred: bool = False,
    ) -> Iterator[_Edge]:
        """Resolved outgoing call edges of one function."""
        info = self._functions.get(key)
        if info is None:
            return
        for site in info.calls:
            if site.offloaded and not include_offloaded:
                continue
            if site.deferred and not include_deferred:
                continue
            target = self.resolve(key[0], info, site.callee)
            if target is not None:
                yield _Edge(target=target, site=site)

    def reachable(
        self,
        roots: Sequence[FuncKey],
        include_offloaded: bool = True,
        include_deferred: bool = True,
    ) -> Dict[FuncKey, Optional[FuncKey]]:
        """Forward closure from ``roots``: ``function -> parent`` witnesses."""
        parents: Dict[FuncKey, Optional[FuncKey]] = {}
        queue: List[FuncKey] = []
        for root in roots:
            if root in self._functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop()
            for edge in self.edges(
                current,
                include_offloaded=include_offloaded,
                include_deferred=include_deferred,
            ):
                if edge.target not in parents:
                    parents[edge.target] = current
                    queue.append(edge.target)
        return parents

    @staticmethod
    def chain(
        parents: Mapping[FuncKey, Optional[FuncKey]], key: FuncKey, limit: int = 8
    ) -> List[str]:
        """Root-to-key qualname path from a ``reachable`` parent map."""
        path: List[str] = []
        cursor: Optional[FuncKey] = key
        while cursor is not None and len(path) < limit:
            path.append(cursor[1])
            cursor = parents.get(cursor)
        return list(reversed(path))
