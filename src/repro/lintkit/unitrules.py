"""The RP3xx physical-units rules (dimensional analysis).

The analysis itself lives in :mod:`repro.lintkit.unitcheck` (per-file
flow-sensitive inference) and :mod:`repro.lintkit.unittypes` (the unit
lattice); this module adapts its output to the engine's two rule tiers:

* **RP301** — mixed-domain arithmetic: a dB-domain value added to,
  multiplied by or divided by a linear-domain one (or two dB values
  multiplied).  ``snr_db * noise_w`` is meaningless; one side must be
  converted first.
* **RP303** — redundant or missing conversion: a ``units.*`` converter
  applied to a value that is already in the target unit, or to a value in
  a different unit than the converter consumes (``db_to_linear(x_dbm)``).
* **RP304** — suffix/annotation disagreement: a name whose ``_db``-style
  suffix, ``Annotated`` unit and/or inferred value unit contradict each
  other (``snr_db = db_to_linear(...)``).
* **RP302** (project tier) — a call argument whose inferred unit
  contradicts the callee parameter's ``Annotated`` unit, checked across
  the project graph's resolved call edges so cross-module calls are
  covered without re-parsing (argument units ride along in the
  :class:`~repro.lintkit.graph.ModuleSummary` records).

All four are library-only: tests re-derive conversions on purpose as
independent oracles.  :mod:`repro.utils.units` itself is also exempt —
it is the one audited place where dB-domain arithmetic is legal (RP101
enforces that part of the contract).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.lintkit.engine import (
    ModuleContext,
    ProjectRule,
    Rule,
    register,
    register_project,
)
from repro.lintkit.findings import Finding
from repro.lintkit.graph import CallSite, FunctionInfo, ProjectGraph
from repro.lintkit.unitcheck import infer_module

__all__ = [
    "MixedDomainArithmeticRule",
    "UnitMismatchedArgumentRule",
    "RedundantConversionRule",
    "SuffixAnnotationRule",
]


def _is_units_module(ctx: ModuleContext) -> bool:
    return ctx.path_endswith("utils", "units.py")


class _UnitDiagRule(Rule):
    """Shared adapter: surface one rule id's slice of the inference diags."""

    library_only = True

    def applies_to(self, ctx: ModuleContext) -> bool:
        return super().applies_to(ctx) and not _is_units_module(ctx)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for diag in infer_module(ctx.tree).diags:
            if diag.rule_id == self.rule_id:
                yield Finding(
                    path=ctx.path,
                    line=diag.line,
                    col=diag.col,
                    rule_id=diag.rule_id,
                    message=diag.message,
                )


@register
class MixedDomainArithmeticRule(_UnitDiagRule):
    """dB-domain and linear-domain values combined in one expression.

    Bad::

        total = noise_w * snr_db          # dB scales nothing
    Good::

        total = noise_w * db_to_linear(snr_db)
    """

    rule_id = "RP301"
    summary = "mixed dB-domain / linear-domain arithmetic"


@register
class RedundantConversionRule(_UnitDiagRule):
    """A units.* converter applied to a value already (or wrongly) converted.

    Bad::

        gain = db_to_linear(margin_linear)     # already linear
        power = dbm_to_watts(psd_dbm_hz)       # wrong converter
    Good::

        gain = db_to_linear(margin_db)
        power = dbm_per_hz_to_watts_per_hz(psd_dbm_hz)
    """

    rule_id = "RP303"
    summary = "redundant or missing units.* conversion"


@register
class SuffixAnnotationRule(_UnitDiagRule):
    """Name suffix, unit annotation and inferred value unit disagree.

    Bad::

        snr_db = db_to_linear(snr)        # name says dB, value is linear
    Good::

        snr_linear = db_to_linear(snr_db)
    """

    rule_id = "RP304"
    summary = "unit suffix / annotation / value disagreement"


@register_project
class UnitMismatchedArgumentRule(ProjectRule):
    """Call argument unit contradicts the parameter's ``Annotated`` unit.

    The per-file checker records the inferred unit of every interesting
    call argument in the module summary; this rule resolves each such
    call through the project graph and compares against the callee's
    declared parameter units — so a ``snr_db`` handed to a
    ``power_w: Watts`` parameter two modules away is caught on a warm
    run without re-parsing either file.
    """

    rule_id = "RP302"
    summary = "call argument unit contradicts the annotated parameter unit"

    def check(self, graph: ProjectGraph) -> Iterable[Finding]:
        for module, info in graph.functions():
            summary = graph.summary(module)
            if summary is None or summary.is_test:
                continue
            for site in info.calls:
                if not site.arg_units and not site.kwarg_units:
                    continue
                target = graph.resolve(module, info, site.callee)
                if target is None:
                    continue
                target_info = graph.function(target)
                if target_info is None or not any(target_info.param_units):
                    continue
                yield from self._compare(summary.path, site, target_info)

    def _compare(
        self, path: str, site: CallSite, target: FunctionInfo
    ) -> Iterator[Finding]:
        params = target.params
        units = target.param_units
        offset = 1 if params and params[0] in ("self", "cls") else 0
        for index, got in enumerate(site.arg_units):
            position = index + offset
            if not got or position >= len(params) or position >= len(units):
                continue
            expected = units[position]
            if expected and got != expected:
                yield self._finding(
                    path, site, f"argument {index + 1}", params[position],
                    got, expected, target.qualname,
                )
        for name, got in site.kwarg_units:
            if not got or name not in params:
                continue
            expected = units[params.index(name)]
            if expected and got != expected:
                yield self._finding(
                    path, site, f"keyword argument '{name}'", name,
                    got, expected, target.qualname,
                )

    def _finding(
        self,
        path: str,
        site: CallSite,
        which: str,
        param: str,
        got: str,
        expected: str,
        callee_qualname: str,
    ) -> Finding:
        return Finding(
            path=path,
            line=site.line,
            col=site.col,
            rule_id=self.rule_id,
            message=(
                f"{which} of {site.callee}() is {got} but parameter "
                f"'{param}' of {callee_qualname}() is annotated {expected}"
            ),
        )
