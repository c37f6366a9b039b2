"""Flow-sensitive physical-units inference (the RP3xx analysis core).

This module walks one parsed module and infers a :class:`~repro.lintkit.
unittypes.Unit` for every expression, seeded from three sources in
decreasing order of strength:

1. ``typing.Annotated`` unit aliases (``DB``, ``Watts``, ``JoulesLike``,
   ...) on parameters, returns and dataclass fields — strong;
2. the ten :mod:`repro.utils.units` converters, treated as built-in unit
   transfer functions (``db_to_linear`` consumes dB and produces a linear
   ratio, ...) — strong;
3. the repo's ``_w/_db/_dbm/_s/_m/_hz`` name-suffix convention — a weak
   prior that fills in where nothing stronger is known.

Inference propagates through assignments, arithmetic (via the
:mod:`~repro.lintkit.unittypes` lattice), NumPy broadcasting wrappers
(``np.asarray``, ``np.where``, reductions, ...) and control flow (branch
environments are joined; anything unclear degrades to ``UNKNOWN`` and can
never produce a finding).

The result of :func:`infer_module` is a :class:`ModuleUnitFacts` bundle:

* ``diags`` — the per-file RP301/RP303/RP304 diagnostics, surfaced by the
  rule classes in :mod:`repro.lintkit.unitrules`;
* ``functions`` — per-function declared parameter/return units, and
* ``calls`` — per-call-site inferred argument units.

The latter two are merged into the :class:`~repro.lintkit.graph.
ModuleSummary` by :func:`~repro.lintkit.graph.summarize_module`, so the
cross-module RP302 check (argument unit vs annotated parameter unit) runs
over the summaries on the project graph, from the one parse per file.

This module deliberately imports nothing from the engine or the graph —
only :mod:`ast` and the unit lattice — so both can import it freely.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.utils.validation import check_non_negative_int
from repro.lintkit.unittypes import (
    UNKNOWN,
    OpResult,
    Unit,
    add_units,
    annotation_unit_name,
    div_units,
    join,
    mul_units,
    suffix_unit,
    unit_named,
)

__all__ = [
    "CONVERTERS",
    "UnitDiag",
    "CallArgUnits",
    "FunctionUnits",
    "ModuleUnitFacts",
    "annotation_unit",
    "infer_module",
]

#: The :mod:`repro.utils.units` converters as unit transfer functions:
#: terminal call name -> (expected input unit, produced output unit).
CONVERTERS: Dict[str, Tuple[str, str]] = {
    "db_to_linear": ("db", "ratio"),
    "linear_to_db": ("ratio", "db"),
    "dbm_to_watts": ("dbm", "watts"),
    "watts_to_dbm": ("watts", "dbm"),
    "dbi_to_linear": ("dbi", "ratio"),
    "dbm_per_hz_to_watts_per_hz": ("dbm_per_hz", "watts_per_hz"),
    "milliwatts_to_watts": ("milliwatts", "watts"),
    "amplitude_ratio_to_db": ("ratio", "db"),
    "db_to_amplitude_ratio": ("db", "ratio"),
}

#: Call terminals that return their first argument's unit unchanged
#: (dtype/shape wrappers and elementwise-or-reducing NumPy helpers).
_FIRST_ARG_TRANSPARENT = frozenset(
    {
        "float",
        "abs",
        "fabs",
        "asarray",
        "array",
        "ascontiguousarray",
        "asfarray",
        "atleast_1d",
        "copy",
        "ravel",
        "squeeze",
        "sum",
        "mean",
        "median",
        "max",
        "min",
        "amax",
        "amin",
        "nanmax",
        "nanmin",
        "nansum",
        "nanmean",
        "cumsum",
        "sort",
        "clip",
        "broadcast_to",
        "repeat",
        "tile",
        "negative",
        "positive",
    }
)

#: Method terminals transparent to the receiver's unit (``x.reshape(...)``).
_METHOD_TRANSPARENT = frozenset(
    {
        "reshape",
        "astype",
        "copy",
        "ravel",
        "flatten",
        "squeeze",
        "sum",
        "mean",
        "max",
        "min",
        "clip",
        "item",
        "take",
        "transpose",
    }
)

#: Attribute views transparent to the base value's unit.
_ATTR_TRANSPARENT = frozenset({"T", "real", "flat"})


def _dotted(node: ast.AST) -> str:
    """Dotted form of a name/attribute chain (mirrors ``graph.dotted_name``).

    Kept local so this module stays import-free of the graph; the two must
    agree because call-site facts are matched back to ``CallSite`` records
    by ``(line, col, callee)``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def annotation_unit(node: Optional[ast.expr]) -> Unit:
    """Unit carried by an annotation expression (else UNKNOWN).

    Recognizes the alias names (``DB``, ``WattsLike``, ...), attribute
    forms (``units.DB``), string annotations, ``Optional[...]`` wrapping,
    and inline ``Annotated[..., UnitSpec("db")]`` spellings.
    """
    if node is None:
        return UNKNOWN
    if isinstance(node, ast.Name):
        return unit_named(annotation_unit_name(node.id))
    if isinstance(node, ast.Attribute):
        return unit_named(annotation_unit_name(node.attr))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return unit_named(annotation_unit_name(node.value))
    if isinstance(node, ast.Subscript):
        head = ""
        if isinstance(node.value, ast.Name):
            head = node.value.id
        elif isinstance(node.value, ast.Attribute):
            head = node.value.attr
        if head == "Optional":
            return annotation_unit(node.slice)
        if head == "Annotated" and isinstance(node.slice, ast.Tuple):
            for meta in node.slice.elts[1:]:
                if (
                    isinstance(meta, ast.Call)
                    and _dotted(meta.func).split(".")[-1] == "UnitSpec"
                    and meta.args
                    and isinstance(meta.args[0], ast.Constant)
                    and isinstance(meta.args[0].value, str)
                ):
                    return unit_named(meta.args[0].value)
    return UNKNOWN


# --------------------------------------------------------------------- #
# Result data model (plain serializable tuples)                         #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class UnitDiag:
    """One per-file diagnostic (rule id RP301/RP303/RP304 + location)."""

    rule_id: str
    line: int
    col: int
    message: str

    def __post_init__(self) -> None:
        check_non_negative_int(self.line, "line")
        check_non_negative_int(self.col, "col")


@dataclass(frozen=True)
class CallArgUnits:
    """Inferred units of one call site's arguments (for RP302)."""

    qualname: str
    callee: str
    line: int
    col: int
    arg_units: Tuple[str, ...]
    kwarg_units: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        check_non_negative_int(self.line, "line")
        check_non_negative_int(self.col, "col")


@dataclass(frozen=True)
class FunctionUnits:
    """Annotation-declared parameter/return units of one function."""

    qualname: str
    params: Tuple[str, ...]
    param_units: Tuple[str, ...]
    return_unit: str


@dataclass(frozen=True)
class ModuleUnitFacts:
    """Everything unit inference learned about one module."""

    functions: Tuple[FunctionUnits, ...] = ()
    calls: Tuple[CallArgUnits, ...] = ()
    diags: Tuple[UnitDiag, ...] = ()


# --------------------------------------------------------------------- #
# The abstract interpreter                                              #
# --------------------------------------------------------------------- #


@dataclass
class _Frame:
    """One flow-sensitive scope: local names and ``self.<attr>`` states."""

    env: Dict[str, Unit] = field(default_factory=dict)
    self_env: Dict[str, Unit] = field(default_factory=dict)
    qualname: str = ""
    cls: Optional[str] = None

    def copy(self) -> "_Frame":
        return _Frame(
            env=dict(self.env),
            self_env=dict(self.self_env),
            qualname=self.qualname,
            cls=self.cls,
        )


def _terminates(body: List[ast.stmt]) -> bool:
    """True when a block cannot fall through (last stmt exits the flow)."""
    if not body:
        return False
    return isinstance(body[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue))


def _join_frames(into: _Frame, other: _Frame) -> None:
    """Merge ``other`` into ``into`` (in place) via the unit lattice join."""
    for key in set(into.env) | set(other.env):
        into.env[key] = join(into.env.get(key, UNKNOWN), other.env.get(key, UNKNOWN))
    for key in set(into.self_env) | set(other.self_env):
        into.self_env[key] = join(
            into.self_env.get(key, UNKNOWN), other.self_env.get(key, UNKNOWN)
        )


def _function_args(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> List[ast.arg]:
    args = fn.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]


class _Inferencer:
    """Single-module abstract interpreter producing :class:`ModuleUnitFacts`."""

    def __init__(self, tree: ast.Module) -> None:
        self._tree = tree
        self._diags: List[UnitDiag] = []
        self._calls: List[CallArgUnits] = []
        self._sigs: List[FunctionUnits] = []
        self._module_env: Dict[str, Unit] = {}
        self._module_sigs: Dict[str, FunctionUnits] = {}
        self._method_sigs: Dict[Tuple[str, str], FunctionUnits] = {}
        #: class name -> {attr: declared unit} (annotations + @property returns)
        self._fields: Dict[str, Dict[str, Unit]] = {}

    # -- driver -------------------------------------------------------- #

    def run(self) -> ModuleUnitFacts:
        for node in self._tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sig = self._signature(node, node.name)
                self._module_sigs[node.name] = sig
                self._sigs.append(sig)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
        module_frame = _Frame(env=self._module_env, qualname="", cls=None)
        for node in self._tree.body:
            self._exec(node, module_frame)
        return ModuleUnitFacts(
            functions=tuple(self._sigs),
            calls=tuple(self._calls),
            diags=tuple(sorted(self._diags, key=lambda d: (d.line, d.col, d.rule_id))),
        )

    # -- signature / class tables (pass 1) ------------------------------ #

    def _signature(
        self, fn: "ast.FunctionDef | ast.AsyncFunctionDef", qualname: str
    ) -> FunctionUnits:
        arg_nodes = _function_args(fn)
        return FunctionUnits(
            qualname=qualname,
            params=tuple(arg.arg for arg in arg_nodes),
            param_units=tuple(
                annotation_unit(arg.annotation).name for arg in arg_nodes
            ),
            return_unit=annotation_unit(fn.returns).name,
        )

    @staticmethod
    def _is_property(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
        for deco in fn.decorator_list:
            if _dotted(deco).split(".")[-1] in ("property", "cached_property"):
                return True
        return False

    def _collect_class(self, node: ast.ClassDef) -> None:
        fields: Dict[str, Unit] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                declared = annotation_unit(stmt.annotation)
                if not declared.is_unknown:
                    fields[stmt.target.id] = declared
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sig = self._signature(stmt, f"{node.name}.{stmt.name}")
                self._method_sigs[(node.name, stmt.name)] = sig
                self._sigs.append(sig)
                if self._is_property(stmt) and sig.return_unit:
                    fields[stmt.name] = unit_named(sig.return_unit)
        self._fields[node.name] = fields

    def _field_unit(self, cls: Optional[str], attr: str) -> Unit:
        if cls is None:
            return UNKNOWN
        return self._fields.get(cls, {}).get(attr, UNKNOWN)

    # -- diagnostics ---------------------------------------------------- #

    def _diag(self, rule_id: str, node: ast.AST, message: str) -> None:
        self._diags.append(
            UnitDiag(
                rule_id=rule_id,
                line=int(getattr(node, "lineno", 1)),
                col=int(getattr(node, "col_offset", 0)) + 1,
                message=message,
            )
        )

    # -- statement execution ------------------------------------------- #

    def _exec_block(self, body: List[ast.stmt], frame: _Frame) -> None:
        for stmt in body:
            self._exec(stmt, frame)

    def _branch(self, body: List[ast.stmt], frame: _Frame) -> Tuple[_Frame, bool]:
        branch_frame = frame.copy()
        self._exec_block(body, branch_frame)
        return branch_frame, _terminates(body)

    def _exec(self, node: ast.stmt, frame: _Frame) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child = f"{frame.qualname}.{node.name}" if frame.qualname else node.name
            self._analyze_function(node, child, frame.cls)
        elif isinstance(node, ast.ClassDef):
            if frame.qualname == "":
                self._analyze_class(node)
            # nested classes inside functions: degrade to silence
        elif isinstance(node, ast.Assign):
            value_unit = self._eval(node.value, frame)
            for target in node.targets:
                self._assign_target(target, node.value, value_unit, None, frame)
        elif isinstance(node, ast.AnnAssign):
            declared = annotation_unit(node.annotation)
            value_unit = (
                self._eval(node.value, frame) if node.value is not None else UNKNOWN
            )
            self._assign_target(
                node.target,
                node.value,
                value_unit,
                declared if not declared.is_unknown else None,
                frame,
            )
        elif isinstance(node, ast.AugAssign):
            left = self._eval_store_target_as_load(node.target, frame)
            right = self._eval(node.value, frame)
            result = self._apply_binop(node.op, left, right, node)
            self._assign_target(node.target, None, result, None, frame)
        elif isinstance(node, ast.If):
            self._eval(node.test, frame)
            then_frame, then_ends = self._branch(node.body, frame)
            else_frame, else_ends = self._branch(node.orelse, frame)
            if then_ends and not else_ends:
                frame.env, frame.self_env = else_frame.env, else_frame.self_env
            elif else_ends and not then_ends:
                frame.env, frame.self_env = then_frame.env, then_frame.self_env
            else:
                frame.env, frame.self_env = then_frame.env, then_frame.self_env
                _join_frames(frame, else_frame)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iter_unit = self._eval(node.iter, frame)
            self._assign_target(node.target, None, iter_unit, None, frame)
            body_frame, _ = self._branch(node.body, frame)
            _join_frames(frame, body_frame)
            self._exec_block(node.orelse, frame)
        elif isinstance(node, ast.While):
            self._eval(node.test, frame)
            body_frame, _ = self._branch(node.body, frame)
            _join_frames(frame, body_frame)
            self._exec_block(node.orelse, frame)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                ctx_unit = self._eval(item.context_expr, frame)
                if item.optional_vars is not None:
                    self._assign_target(
                        item.optional_vars, None, ctx_unit, None, frame
                    )
            self._exec_block(node.body, frame)
        elif isinstance(node, ast.Try):
            pre = frame.copy()
            self._exec_block(node.body, frame)
            # Handlers observe a weakened state: anything the body may have
            # changed joins with its pre-body unit (the exception could have
            # fired anywhere).
            weakened = frame.copy()
            _join_frames(weakened, pre)
            exits: List[_Frame] = [] if _terminates(node.body) else [frame.copy()]
            for handler in node.handlers:
                handler_frame = weakened.copy()
                if handler.name:
                    handler_frame.env[handler.name] = UNKNOWN
                self._exec_block(handler.body, handler_frame)
                if not _terminates(handler.body):
                    exits.append(handler_frame)
            if exits:
                merged = exits[0]
                for other in exits[1:]:
                    _join_frames(merged, other)
                frame.env, frame.self_env = merged.env, merged.self_env
            self._exec_block(node.orelse, frame)
            self._exec_block(node.finalbody, frame)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._eval(node.value, frame)
        elif isinstance(node, ast.Expr):
            self._eval(node.value, frame)
        elif isinstance(node, ast.Assert):
            self._eval(node.test, frame)
            if node.msg is not None:
                self._eval(node.msg, frame)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self._eval(node.exc, frame)
            if node.cause is not None:
                self._eval(node.cause, frame)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    frame.env.pop(target.id, None)
                else:
                    self._eval(target, frame)
        elif isinstance(
            node,
            (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Pass),
        ):
            return
        else:
            # Unmodeled statements (e.g. ``match``): walk children generically.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._exec(child, frame)
                elif isinstance(child, ast.expr):
                    self._eval(child, frame)

    # -- assignments (with the RP304 suffix/annotation checks) ---------- #

    def _eval_store_target_as_load(self, target: ast.expr, frame: _Frame) -> Unit:
        """Unit of an (aug)assignment target read as a value."""
        if isinstance(target, ast.Name):
            return self._load_name(target.id, frame)
        if isinstance(target, ast.Attribute):
            return self._eval_attribute(target, frame)
        if isinstance(target, ast.Subscript):
            return self._eval(target.value, frame)
        return UNKNOWN

    def _assign_target(
        self,
        target: ast.expr,
        value_node: Optional[ast.expr],
        value_unit: Unit,
        declared: Optional[Unit],
        frame: _Frame,
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind_name(target, target.id, value_unit, declared, frame)
        elif isinstance(target, ast.Attribute):
            dotted = _dotted(target)
            parts = dotted.split(".") if dotted else []
            if len(parts) == 2 and parts[0] == "self":
                attr = parts[1]
                field_decl = declared
                if field_decl is None:
                    known = self._field_unit(frame.cls, attr)
                    field_decl = known if not known.is_unknown else None
                self._check_store(target, attr, value_unit, field_decl)
                frame.self_env[attr] = (
                    field_decl
                    if field_decl is not None and value_unit.is_unknown
                    else value_unit
                )
            else:
                self._eval(target.value, frame)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements: List[Optional[ast.expr]] = [None] * len(target.elts)
            element_units: List[Unit] = [UNKNOWN] * len(target.elts)
            if isinstance(value_node, (ast.Tuple, ast.List)) and len(
                value_node.elts
            ) == len(target.elts):
                # Units were already computed element-wise during _eval of
                # the tuple; recomputing would double-report diags, so we
                # conservatively re-derive only side-effect-free units.
                element_units = [
                    self._pure_unit(elt, frame) for elt in value_node.elts
                ]
                elements = list(value_node.elts)
            for sub_target, sub_unit, _ in zip(
                target.elts, element_units, elements
            ):
                if isinstance(sub_target, ast.Starred):
                    sub_target = sub_target.value
                    sub_unit = UNKNOWN
                self._assign_target(sub_target, None, sub_unit, None, frame)
        elif isinstance(target, ast.Subscript):
            self._eval(target.value, frame)
            self._eval(target.slice, frame)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, None, UNKNOWN, None, frame)

    def _bind_name(
        self,
        node: ast.AST,
        name: str,
        value_unit: Unit,
        declared: Optional[Unit],
        frame: _Frame,
    ) -> None:
        self._check_store(node, name, value_unit, declared)
        if declared is not None:
            frame.env[name] = declared
        else:
            frame.env[name] = value_unit

    def _check_store(
        self,
        node: ast.AST,
        name: str,
        value_unit: Unit,
        declared: Optional[Unit],
    ) -> None:
        """The RP304 suffix/annotation/value agreement checks for one store."""
        prior = suffix_unit(name)
        if declared is not None:
            if not prior.is_unknown and prior != declared:
                self._diag(
                    "RP304",
                    node,
                    f"'{name}' is suffixed like {prior} but annotated "
                    f"{declared}; rename it or fix the annotation",
                )
            if not value_unit.is_unknown and value_unit != declared:
                self._diag(
                    "RP304",
                    node,
                    f"'{name}' is annotated {declared} but assigned a "
                    f"{value_unit} value",
                )
        elif not prior.is_unknown and not value_unit.is_unknown and prior != value_unit:
            self._diag(
                "RP304",
                node,
                f"'{name}' is suffixed like {prior} but assigned a "
                f"{value_unit} value",
            )

    def _pure_unit(self, node: ast.expr, frame: _Frame) -> Unit:
        """Unit of a side-effect-free re-read (no diag emission)."""
        if isinstance(node, ast.Name):
            return self._load_name(node.id, frame)
        if isinstance(node, ast.Attribute) and _dotted(node):
            return self._eval_attribute(node, frame)
        return UNKNOWN

    # -- functions / classes -------------------------------------------- #

    def _analyze_function(
        self,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        qualname: str,
        cls: Optional[str],
    ) -> None:
        frame = _Frame(qualname=qualname, cls=cls)
        for arg in _function_args(fn):
            declared = annotation_unit(arg.annotation)
            prior = suffix_unit(arg.arg)
            if not declared.is_unknown:
                if not prior.is_unknown and prior != declared:
                    self._diag(
                        "RP304",
                        arg,
                        f"parameter '{arg.arg}' is suffixed like {prior} "
                        f"but annotated {declared}",
                    )
                frame.env[arg.arg] = declared
        module_frame = _Frame(env=self._module_env)
        for default in [*fn.args.defaults, *fn.args.kw_defaults]:
            if default is not None:
                self._eval(default, module_frame)
        self._exec_block(fn.body, frame)

    def _analyze_class(self, node: ast.ClassDef) -> None:
        frame = _Frame(qualname=node.name, cls=node.name)
        self._exec_block(node.body, frame)

    # -- expression evaluation ------------------------------------------ #

    def _load_name(self, name: str, frame: _Frame) -> Unit:
        unit = frame.env.get(name, UNKNOWN)
        if not unit.is_unknown:
            return unit
        unit = self._module_env.get(name, UNKNOWN)
        if not unit.is_unknown:
            return unit
        return suffix_unit(name)

    def _eval_attribute(self, node: ast.Attribute, frame: _Frame) -> Unit:
        dotted = _dotted(node)
        if dotted:
            parts = dotted.split(".")
            if parts[0] == "self" and len(parts) == 2:
                attr = parts[1]
                unit = frame.self_env.get(attr, UNKNOWN)
                if not unit.is_unknown:
                    return unit
                unit = self._field_unit(frame.cls, attr)
                if not unit.is_unknown:
                    return unit
                return suffix_unit(attr)
            return suffix_unit(node.attr)
        base_unit = self._eval(node.value, frame)
        if node.attr in _ATTR_TRANSPARENT:
            return base_unit
        return UNKNOWN

    def _apply_binop(
        self, op: ast.operator, left: Unit, right: Unit, node: ast.AST
    ) -> Unit:
        result: Optional[OpResult] = None
        if isinstance(op, (ast.Add, ast.Sub)):
            result = add_units(left, right, is_sub=isinstance(op, ast.Sub))
        elif isinstance(op, ast.Mult):
            result = mul_units(left, right)
        elif isinstance(op, (ast.Div, ast.FloorDiv)):
            result = div_units(left, right)
        if result is None:
            return UNKNOWN
        if result.error:
            self._diag("RP301", node, result.error)
        return result.unit

    def _eval_call(self, node: ast.Call, frame: _Frame) -> Unit:
        callee = _dotted(node.func)
        terminal = callee.split(".")[-1] if callee else ""
        arg_units: List[Unit] = []
        starred = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                starred = True
                self._eval(arg.value, frame)
                arg_units.append(UNKNOWN)
            else:
                arg_units.append(self._eval(arg, frame))
        kwarg_units: List[Tuple[str, Unit]] = []
        double_star = False
        for kw in node.keywords:
            unit = self._eval(kw.value, frame)
            if kw.arg is None:
                double_star = True
            else:
                kwarg_units.append((kw.arg, unit))
        if not callee:
            # Complex callable expression: evaluate it for nested diags.
            self._eval(node.func, frame)

        # 1. The units.* converters are built-in transfer functions.
        if terminal in CONVERTERS:
            expected_name, produced_name = CONVERTERS[terminal]
            if arg_units and not starred:
                got = arg_units[0]
                if not got.is_unknown:
                    if got.name == produced_name:
                        self._diag(
                            "RP303",
                            node,
                            f"redundant conversion: {terminal}() argument "
                            f"is already {got}",
                        )
                    elif got.name != expected_name:
                        # Prefer a converter consuming the actual unit and
                        # producing what this call meant to produce; fall
                        # back to any converter that consumes it.
                        candidates = [
                            name
                            for name, (inp, _out) in CONVERTERS.items()
                            if inp == got.name
                        ]
                        suggestion = next(
                            (
                                name
                                for name in candidates
                                if CONVERTERS[name][1] == produced_name
                            ),
                            candidates[0] if candidates else "",
                        )
                        hint = f"; use {suggestion}() instead" if suggestion else ""
                        self._diag(
                            "RP303",
                            node,
                            f"{terminal}() expects {expected_name} but the "
                            f"argument is {got}{hint}",
                        )
            return unit_named(produced_name)

        # 2. Record argument units for the cross-module RP302 check.
        if (
            callee
            and not starred
            and not double_star
            and (
                any(not unit.is_unknown for unit in arg_units)
                or any(not unit.is_unknown for _, unit in kwarg_units)
            )
        ):
            self._calls.append(
                CallArgUnits(
                    qualname=frame.qualname or "<module>",
                    callee=callee,
                    line=int(node.lineno),
                    col=int(node.col_offset) + 1,
                    arg_units=tuple(unit.name for unit in arg_units),
                    kwarg_units=tuple(
                        (name, unit.name) for name, unit in kwarg_units
                    ),
                )
            )

        # 3. Locally declared functions/methods with annotated returns.
        parts = callee.split(".") if callee else []
        if len(parts) == 1:
            sig = self._module_sigs.get(parts[0])
            if sig is not None and sig.return_unit:
                return unit_named(sig.return_unit)
        elif len(parts) == 2 and parts[0] == "self" and frame.cls is not None:
            method_sig = self._method_sigs.get((frame.cls, parts[1]))
            if method_sig is not None and method_sig.return_unit:
                return unit_named(method_sig.return_unit)

        # 4. NumPy/builtin broadcasting wrappers.
        if terminal in ("maximum", "minimum") and len(arg_units) >= 2:
            return join(arg_units[0], arg_units[1])
        if terminal == "where" and len(arg_units) == 3:
            return join(arg_units[1], arg_units[2])
        if terminal in ("full", "full_like") and len(arg_units) >= 2:
            return arg_units[1]
        if terminal == "sqrt" and arg_units:
            return arg_units[0] if arg_units[0].name == "ratio" else UNKNOWN
        if isinstance(node.func, ast.Attribute) and terminal in _METHOD_TRANSPARENT:
            receiver = _dotted(node.func.value)
            if receiver and receiver.split(".")[0] not in ("np", "numpy"):
                return self._pure_unit(node.func.value, frame)
        if terminal in _FIRST_ARG_TRANSPARENT and arg_units and not starred:
            return arg_units[0]
        return UNKNOWN

    def _eval_comprehension(self, node: ast.expr, frame: _Frame) -> Unit:
        comp_frame = frame.copy()
        generators = getattr(node, "generators", [])
        for gen in generators:
            iter_unit = self._eval(gen.iter, comp_frame)
            self._assign_target(gen.target, None, iter_unit, None, comp_frame)
            for cond in gen.ifs:
                self._eval(cond, comp_frame)
        if isinstance(node, ast.DictComp):
            self._eval(node.key, comp_frame)
            self._eval(node.value, comp_frame)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._eval(node.elt, comp_frame)
        return UNKNOWN

    def _eval(self, node: ast.expr, frame: _Frame) -> Unit:
        if isinstance(node, ast.Constant):
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self._load_name(node.id, frame)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, frame)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, frame)
            right = self._eval(node.right, frame)
            return self._apply_binop(node.op, left, right, node)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, frame)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return operand
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node, frame)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, frame)
            return join(self._eval(node.body, frame), self._eval(node.orelse, frame))
        if isinstance(node, ast.Compare):
            self._eval(node.left, frame)
            for comparator in node.comparators:
                self._eval(comparator, frame)
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value, frame)
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, frame)
            self._eval(node.slice, frame)
            return base
        if isinstance(node, ast.Slice):
            for bound in (node.lower, node.upper, node.step):
                if bound is not None:
                    self._eval(bound, frame)
            return UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                if isinstance(elt, ast.Starred):
                    self._eval(elt.value, frame)
                else:
                    self._eval(elt, frame)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key, frame)
            for value in node.values:
                self._eval(value, frame)
            return UNKNOWN
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comprehension(node, frame)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value, frame)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self._eval(node.value, frame)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            unit = self._eval(node.value, frame)
            self._bind_name(node.target, node.target.id, unit, None, frame)
            return unit
        if isinstance(node, ast.Starred):
            return self._eval(node.value, frame)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value, frame)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            return UNKNOWN
        return UNKNOWN


@lru_cache(maxsize=8)
def infer_module(tree: ast.Module) -> ModuleUnitFacts:
    """Infer unit facts for one parsed module (memoized per tree object).

    The memoization keys on the tree's object identity: within one
    engine pass the RP301/RP303/RP304 rules and the summary builder all
    see the same parse, so inference runs once per file.
    """
    return _Inferencer(tree).run()
