"""The RP-rule catalogue.

Each rule encodes one convention this repository relies on for silent
correctness (see ``docs/static_analysis.md`` for the rationale and bad/good
examples):

========  ==============================================================
RP101     no inline dB/linear math outside :mod:`repro.utils.units`
RP102     no ``numpy.random`` construction outside :mod:`repro.utils.rng`
RP103     no wall-clock / stdlib-``random`` nondeterminism in library code
RP104     public numeric parameters are validated at the API boundary
RP105     ``__all__`` entries must exist in the module namespace
RP106     no mutable default arguments
RP107     no bare ``time.sleep`` in ``repro.service`` (inject a sleeper)
========  ==============================================================
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from repro.lintkit.engine import ModuleContext, Rule, register
from repro.lintkit.findings import Finding
from repro.lintkit.unittypes import ANNOTATION_UNITS

__all__ = [
    "InlineDbConversionRule",
    "NumpyRandomOutsideRngRule",
    "NondeterminismRule",
    "UnvalidatedNumericParamRule",
    "DunderAllConsistencyRule",
    "MutableDefaultRule",
    "ServiceBareSleepRule",
]


# --------------------------------------------------------------------- #
# Shared AST helpers                                                    #
# --------------------------------------------------------------------- #


def _is_const(node: ast.AST, *values: float) -> bool:
    """True if ``node`` is a numeric constant equal to one of ``values``."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and float(node.value) in values
    )


def _call_name(func: ast.AST) -> str:
    """Terminal name of a call target: ``np.log10`` -> ``log10``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _dotted_name(node: ast.AST) -> str:
    """Best-effort dotted form of an attribute chain (``np.random.default_rng``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_log10_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _call_name(node.func) == "log10"


def _has_db_divisor(node: ast.AST) -> bool:
    """True if the expression contains a division by 10 or 20 (a dB scaling)."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.BinOp)
            and isinstance(sub.op, ast.Div)
            and _is_const(sub.right, 10.0, 20.0)
        ):
            return True
    return False


def _mult_has_db_factor(node: ast.AST, depth: int = 2) -> bool:
    """True if a multiplication chain carries a literal 10/20 factor.

    Handles both ``10 * log10(x)`` and the one-level-nested shape
    ``10 * n * log10(x)`` (which parses as ``(10 * n) * log10(x)``).
    """
    if _is_const(node, 10.0, 20.0):
        return True
    if depth <= 0:
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _mult_has_db_factor(node.left, depth - 1) or _mult_has_db_factor(
            node.right, depth - 1
        )
    return False


# --------------------------------------------------------------------- #
# RP101 — inline dB/linear conversions                                  #
# --------------------------------------------------------------------- #


@register
class InlineDbConversionRule(Rule):
    """Flag ``10 ** (x / 10)``, ``10 * log10(x)`` and friends.

    All dB↔linear conversion must flow through :mod:`repro.utils.units`:
    a 3 dB slip from a duplicated, subtly different conversion silently
    flips feasibility verdicts in the interference-constrained analyses.
    Exempt: ``utils/units.py`` itself (the one audited implementation) and
    test modules (which re-derive conversions as independent oracles).
    """

    rule_id = "RP101"
    summary = "inline dB/linear conversion outside repro.utils.units"
    library_only = True

    def applies_to(self, ctx: ModuleContext) -> bool:
        if ctx.path_endswith("utils", "units.py"):
            return False
        return super().applies_to(ctx)

    def _violation(self, node: ast.AST) -> Optional[str]:
        # 10 ** (x / 10)  or  10 ** (x / 20)
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and _is_const(node.left, 10.0)
            and _has_db_divisor(node.right)
        ):
            return "10 ** (x / 10)-style conversion"
        # np.power(10, x / 10)
        if (
            isinstance(node, ast.Call)
            and _call_name(node.func) == "power"
            and len(node.args) >= 2
            and _is_const(node.args[0], 10.0)
            and _has_db_divisor(node.args[1])
        ):
            return "np.power(10, x / 10)-style conversion"
        # 10 * log10(x)  /  20 * log10(x)  /  10 * n * log10(x)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side, other in ((node.left, node.right), (node.right, node.left)):
                if _is_log10_call(side) and _mult_has_db_factor(other):
                    return "10 * log10(x)-style conversion"
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            what = self._violation(node)
            if what is not None:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{what}; route it through repro.utils.units "
                    "(db_to_linear / linear_to_db / dbm_to_watts / ...)",
                )


# --------------------------------------------------------------------- #
# RP102 — numpy.random outside utils/rng                                #
# --------------------------------------------------------------------- #

#: numpy.random attributes that are types/constants, not stream constructors;
#: referencing them (e.g. in ``isinstance`` checks or annotations) is fine.
_NP_RANDOM_NON_CALLS = frozenset({"Generator", "BitGenerator", "RandomState"})


@register
class NumpyRandomOutsideRngRule(Rule):
    """Flag ``np.random.*`` calls (and imported aliases) outside utils/rng.

    Hidden generator construction breaks the seed-threading contract that
    makes every experiment table regenerate bit-for-bit: library code must
    accept an ``rng`` argument and coerce it with
    :func:`repro.utils.rng.as_rng` (or derive streams with ``spawn_rngs`` /
    ``spawn_seed_sequences``).
    """

    rule_id = "RP102"
    summary = "numpy.random call outside repro.utils.rng"
    library_only = True

    def applies_to(self, ctx: ModuleContext) -> bool:
        if ctx.path_endswith("utils", "rng.py"):
            return False
        return super().applies_to(ctx)

    @staticmethod
    def _numpy_random_imports(tree: ast.Module) -> Set[str]:
        """Local names bound by ``from numpy.random import ...``."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    names.add(alias.asname or alias.name)
        return names

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imported = self._numpy_random_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            parts = dotted.split(".")
            if (
                len(parts) >= 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in _NP_RANDOM_NON_CALLS
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"direct call to {dotted}; use repro.utils.rng "
                    "(as_rng / spawn_rngs / spawn_seed_sequences)",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in imported
                and node.func.id not in _NP_RANDOM_NON_CALLS
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"call to numpy.random.{node.func.id} (imported directly); "
                    "use repro.utils.rng (as_rng / spawn_rngs / spawn_seed_sequences)",
                )


# --------------------------------------------------------------------- #
# RP103 — nondeterminism sources in library code                        #
# --------------------------------------------------------------------- #

#: Dotted call targets whose results differ run-to-run.
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.perf_counter",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
    }
)


@register
class NondeterminismRule(Rule):
    """Flag wall-clock reads, ``os.urandom`` and the stdlib ``random`` module.

    Library results must be pure functions of their inputs and the seeds
    threaded through ``rng`` arguments; time- or OS-entropy-dependent values
    make experiment tables unreproducible in ways no seed can fix.
    (Benchmark harnesses live outside ``src/`` and may time freely.)
    """

    rule_id = "RP103"
    summary = "nondeterminism source (wall clock, os entropy, stdlib random)"
    library_only = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        stdlib_random_imported = False
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        stdlib_random_imported = True
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            "stdlib 'random' import; use repro.utils.rng "
                            "generators seeded through as_rng",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "import from stdlib 'random'; use repro.utils.rng "
                    "generators seeded through as_rng",
                )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted in _NONDETERMINISTIC_CALLS:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"call to nondeterministic {dotted}; library results "
                        "must depend only on inputs and threaded seeds",
                    )
                elif stdlib_random_imported and dotted.startswith("random."):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"call to stdlib {dotted}; use repro.utils.rng "
                        "generators seeded through as_rng",
                    )


# --------------------------------------------------------------------- #
# RP104 — unvalidated public numeric parameters                         #
# --------------------------------------------------------------------- #

# Unit aliases (``Watts``, ``DBLike``, ...) annotate plain floats/arrays,
# so fields carrying them still owe RP104 its range validation.
_NUMERIC_ANNOTATIONS = frozenset({"int", "float"}) | frozenset(ANNOTATION_UNITS)


def _is_numeric_annotation(annotation: Optional[ast.AST]) -> bool:
    """True for ``int`` / ``float`` (possibly Optional or string-quoted)."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id in _NUMERIC_ANNOTATIONS
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.strip() in _NUMERIC_ANNOTATIONS
    if isinstance(annotation, ast.Subscript):
        # Optional[float] / typing.Optional["int"]
        if _call_name(annotation.value) == "Optional":
            return _is_numeric_annotation(annotation.slice)
        return False
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # float | None, int | float
        sides = (annotation.left, annotation.right)
        numeric = [s for s in sides if not (_is_const_none(s))]
        return bool(numeric) and all(_is_numeric_annotation(s) for s in numeric)
    return False


def _is_const_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_dataclass_decorated(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _call_name(target) == "dataclass":
            return True
    return False


def _validated_names(func: ast.FunctionDef) -> Set[str]:
    """Parameter/field names that a guard in ``func`` actually looks at.

    A name counts as validated when it appears either

    * in the arguments of a ``check_*`` call (the :mod:`repro.utils.validation`
      helpers), or
    * in the test of an ``if`` whose body raises (a hand-rolled guard).

    Both ``x`` and ``self.x`` register the name ``x``.
    """
    names: Set[str] = set()

    def collect(expr: ast.AST) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)

    for node in ast.walk(func):
        if isinstance(node, ast.Call) and _call_name(node.func).startswith("check_"):
            for arg in node.args:
                collect(arg)
            for keyword in node.keywords:
                if keyword.value is not None:
                    collect(keyword.value)
        elif isinstance(node, ast.If) and any(
            isinstance(sub, ast.Raise) for sub in ast.walk(node)
        ):
            collect(node.test)
    return names


@register
class UnvalidatedNumericParamRule(Rule):
    """Public numeric parameters must be validated at the API boundary.

    Every public dataclass field or ``__init__`` parameter annotated ``int``
    or ``float`` must be covered by a :mod:`repro.utils.validation` checker
    (preferred) or an explicit raising guard in ``__init__`` /
    ``__post_init__``, so a mis-configured experiment fails with a named
    parameter instead of an inscrutable NumPy error deep in a kernel.
    """

    rule_id = "RP104"
    summary = "public numeric parameter without boundary validation"
    library_only = True

    @staticmethod
    def _class_validators(cls: ast.ClassDef) -> Set[str]:
        names: Set[str] = set()
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name in (
                "__init__",
                "__post_init__",
            ):
                names |= _validated_names(node)
        return names

    def _dataclass_findings(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        validated = self._class_validators(cls)
        for node in cls.body:
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and not node.target.id.startswith("_")
                and _is_numeric_annotation(node.annotation)
                and node.target.id not in validated
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"numeric field {cls.name}.{node.target.id} is never "
                    "validated; add a repro.utils.validation check in "
                    "__post_init__",
                )

    def _init_findings(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        init = next(
            (
                node
                for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__"
            ),
            None,
        )
        if init is None:
            return
        validated = _validated_names(init)
        for arg in list(init.args.args) + list(init.args.kwonlyargs):
            if (
                arg.arg != "self"
                and not arg.arg.startswith("_")
                and _is_numeric_annotation(arg.annotation)
                and arg.arg not in validated
            ):
                yield ctx.finding(
                    self.rule_id,
                    arg,
                    f"numeric parameter {cls.name}.__init__({arg.arg}) is "
                    "never validated; add a repro.utils.validation check",
                )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            if _is_dataclass_decorated(node):
                yield from self._dataclass_findings(ctx, node)
            else:
                yield from self._init_findings(ctx, node)


# --------------------------------------------------------------------- #
# RP105 — __all__ consistency                                           #
# --------------------------------------------------------------------- #


@register
class DunderAllConsistencyRule(Rule):
    """``__all__`` must be a literal list of names the module really defines."""

    rule_id = "RP105"
    summary = "__all__ inconsistent with the module namespace"

    @staticmethod
    def _module_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, (ast.If, ast.Try)):
                # names bound conditionally (TYPE_CHECKING blocks, fallbacks)
                for sub in ast.walk(node):
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        names.add(sub.name)
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            for leaf in ast.walk(target):
                                if isinstance(leaf, ast.Name):
                                    names.add(leaf.id)
                    elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            names.add(alias.asname or alias.name.split(".")[0])
        return names

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        dunder_all: Optional[ast.Assign] = None
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                dunder_all = node
        if dunder_all is None:
            return
        value = dunder_all.value
        if not isinstance(value, (ast.List, ast.Tuple)):
            yield ctx.finding(
                self.rule_id,
                dunder_all,
                "__all__ must be a literal list/tuple of strings",
            )
            return
        entries: List[Tuple[str, ast.AST]] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                entries.append((element.value, element))
            else:
                yield ctx.finding(
                    self.rule_id, element, "__all__ entries must be string literals"
                )
        defined = self._module_names(ctx.tree)
        seen: Set[str] = set()
        for name, element in entries:
            if name in seen:
                yield ctx.finding(
                    self.rule_id, element, f"duplicate __all__ entry {name!r}"
                )
            seen.add(name)
            if name not in defined:
                yield ctx.finding(
                    self.rule_id,
                    element,
                    f"__all__ exports {name!r} but the module never defines it",
                )


# --------------------------------------------------------------------- #
# RP106 — mutable default arguments                                     #
# --------------------------------------------------------------------- #

_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


# --------------------------------------------------------------------- #
# RP107 — bare time.sleep in the service layer                          #
# --------------------------------------------------------------------- #


@register
class ServiceBareSleepRule(Rule):
    """Flag ``time.sleep`` usage anywhere in ``repro.service``.

    Hand-rolled ``time.sleep`` retry loops block threads for fixed,
    unjittered intervals, synchronize stampedes against an overloaded
    server and make tests slow and flaky.  The service layer does not
    retry at all: its client makes one attempt per call, and the one
    retry loop (the load generator's, backing off by
    :meth:`repro.loadgen.spec.ClientPolicy.backoff_s`) sleeps through an
    injectable sleeper.  Both calls *and* bare references are flagged, so
    aliasing ``time.sleep`` into a default argument cannot dodge the rule.
    """

    rule_id = "RP107"
    summary = "bare time.sleep in repro.service (inject a sleeper)"
    library_only = True

    def applies_to(self, ctx: ModuleContext) -> bool:
        parts = Path(ctx.path).parts
        in_service = (
            "repro" in parts
            and "service" in parts
            and parts.index("service") == parts.index("repro") + 1
        )
        if not in_service:
            return False
        return super().applies_to(ctx)

    @staticmethod
    def _sleep_imports(tree: ast.Module) -> Set[str]:
        """Local names bound by ``from time import sleep`` (and aliases)."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        names.add(alias.asname or alias.name)
        return names

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imported = self._sleep_imports(ctx.tree)
        message = (
            "bare time.sleep in service code; await asyncio.sleep or wait "
            "through an injected sleeper"
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and _dotted_name(node) == "time.sleep":
                yield ctx.finding(self.rule_id, node, message)
            elif isinstance(node, ast.ImportFrom) and node.module == "time" and any(
                alias.name == "sleep" for alias in node.names
            ):
                yield ctx.finding(self.rule_id, node, message)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in imported
            ):
                yield ctx.finding(self.rule_id, node, message)


@register
class MutableDefaultRule(Rule):
    """Flag mutable default argument values (shared across calls)."""

    rule_id = "RP106"
    summary = "mutable default argument"

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CONSTRUCTORS
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults: List[Optional[ast.expr]] = list(node.args.defaults)
            defaults.extend(node.args.kw_defaults)
            for default in defaults:
                if default is not None and self._is_mutable(default):
                    yield ctx.finding(
                        self.rule_id,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None (or use dataclasses.field)",
                    )
