"""The RP2xx *project* rule family: dataflow over the call graph.

Where the RP1xx rules police one file, these rules walk
:class:`repro.lintkit.graph.ProjectGraph` reachability, because the
invariants they guard are properties of *paths*, not lines:

========  ==============================================================
RP201     blocking call reachable inside an ``async def`` in
          ``repro.service`` without pool/executor offload
RP202     unawaited coroutine / fire-and-forget task without a reference
RP203     determinism taint: wall clock, ``os.urandom`` or unseeded RNG
          reachable from a cached ``/v1/*`` handler
RP204     non-2xx response built without ``schemas.error_payload``
RP205     resource acquired without a context manager or close evidence
RP206     ``self.<attr>`` read-modify-write spanning an ``await`` in a
          ``repro.service`` coroutine (task-interleaving race)
========  ==============================================================

RP201–RP203 and RP206 are graph rules (:class:`ProjectRule`): they run once per
analysis over the whole summary set.  RP204/RP205 are per-file rules in
the same family — they need no cross-module context, so they run in the
parallel per-file pass.

Everything here is best-effort by design: an unresolvable callee produces
no edge and therefore no finding.  The rules err toward silence, and every
deliberate exception in the tree carries a ``# lint: ignore[RP2xx]`` with
its justification (see ``docs/static_analysis.md``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lintkit.engine import (
    ModuleContext,
    ProjectRule,
    Rule,
    register,
    register_project,
)
from repro.lintkit.findings import Finding
from repro.lintkit.graph import (
    CallSite,
    FuncKey,
    FunctionInfo,
    ProjectGraph,
    dotted_name,
)
from repro.lintkit.rules import _NONDETERMINISTIC_CALLS

__all__ = [
    "AsyncBlockingRule",
    "UnawaitedCoroutineRule",
    "DeterminismTaintRule",
    "ErrorPayloadRule",
    "ResourceHygieneRule",
    "AwaitInterleavingRule",
]


def _is_service_module(module: str) -> bool:
    return module == "repro.service" or module.startswith("repro.service.")


# --------------------------------------------------------------------- #
# RP201 — blocking calls reachable inside service async defs            #
# --------------------------------------------------------------------- #

#: Direct kernel entry points: a root-finding solve takes milliseconds —
#: three orders of magnitude over the event-loop budget per callback.
_KERNEL_SOLVE_MODULE = "repro.energy.ebar"
_KERNEL_SOLVE_NAMES = frozenset({"solve_ebar", "solve_ebar_batch"})


def _blocking_primitive(site: CallSite) -> Optional[str]:
    """A human-readable description when the call itself blocks."""
    dotted = site.callee
    parts = dotted.split(".")
    terminal = parts[-1]
    if dotted == "open":
        return "file I/O via open()"
    if dotted in ("socket.socket", "socket.create_connection"):
        return f"socket construction via {dotted}()"
    if parts[0] == "subprocess":
        return f"subprocess call {dotted}()"
    if dotted == "time.sleep":
        return "time.sleep()"
    if terminal == "load" and parts[0] in ("np", "numpy"):
        return "file I/O via np.load()"
    if terminal in _KERNEL_SOLVE_NAMES:
        return f"direct kernel solve {terminal}()"
    return None


def _is_kernel_solve(key: FuncKey) -> bool:
    return key[0] == _KERNEL_SOLVE_MODULE and key[1].startswith("solve_")


#: ``may_block[f] = (description, via)`` — ``via`` is the callee through
#: which the blocking primitive is reached (None when f contains it).
_MayBlock = Dict[FuncKey, Tuple[str, Optional[FuncKey]]]


def _compute_may_block(graph: ProjectGraph) -> _MayBlock:
    """Fixpoint: which functions can block when run on the event loop.

    Propagation follows *inline* edges only — offloaded and deferred
    callables run elsewhere.  An async callee propagates only when awaited
    (an un-awaited coroutine never runs), and an async def inside
    ``repro.service`` is a barrier: its own blocking is reported at its
    own call sites, not re-reported in every caller.
    """
    may: _MayBlock = {}
    for module, fn in graph.functions():
        key = (module, fn.qualname)
        if _is_kernel_solve(key):
            may[key] = (f"direct kernel solve {fn.name}()", None)
    changed = True
    while changed:
        changed = False
        for module, fn in graph.functions():
            key = (module, fn.qualname)
            if key in may:
                continue
            for site in fn.calls:
                if site.offloaded or site.deferred:
                    continue
                primitive = _blocking_primitive(site)
                if primitive is not None:
                    may[key] = (primitive, None)
                    changed = True
                    break
                target = graph.resolve(module, fn, site.callee)
                if target is None or target not in may:
                    continue
                target_fn = graph.function(target)
                if target_fn is None:
                    continue
                if target_fn.is_async and not site.awaited:
                    continue
                if target_fn.is_async and _is_service_module(target[0]):
                    continue  # barrier: reported inside that handler
                may[key] = (may[target][0], target)
                changed = True
                break
    return may


def _blocking_chain(may: _MayBlock, start: FuncKey, limit: int = 8) -> str:
    names: List[str] = []
    cursor: Optional[FuncKey] = start
    description = ""
    while cursor is not None and len(names) < limit:
        names.append(cursor[1])
        description, cursor = may[cursor]
    return " -> ".join(names + [description])


@register_project
class AsyncBlockingRule(ProjectRule):
    """RP201: the event loop must never run file/socket I/O or a solve.

    A single blocked callback stalls *every* connection on the shard; at
    the "millions of users" request rates the serving stack targets, one
    ``np.load`` on the loop is a fleet-wide latency spike.  Heavy work
    belongs in the worker pool (``pool.submit``) or an executor
    (``loop.run_in_executor``) — both of which this rule recognizes and
    exempts.
    """

    rule_id = "RP201"
    summary = "blocking call reachable inside a repro.service async def"

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        may = _compute_may_block(graph)
        for module, fn in graph.functions():
            if not _is_service_module(module) or not fn.is_async:
                continue
            summary = graph.summary(module)
            if summary is None or summary.is_test:
                continue
            seen: Set[Tuple[int, int]] = set()
            for site in fn.calls:
                if site.offloaded or site.deferred:
                    continue
                location = (site.line, site.col)
                if location in seen:
                    continue
                primitive = _blocking_primitive(site)
                if primitive is not None:
                    seen.add(location)
                    yield Finding(
                        path=summary.path,
                        line=site.line,
                        col=site.col,
                        rule_id=self.rule_id,
                        message=(
                            f"blocking {primitive} inside async def {fn.name}; "
                            "offload via the worker pool or run_in_executor"
                        ),
                    )
                    continue
                target = graph.resolve(module, fn, site.callee)
                if target is None or target not in may:
                    continue
                target_fn = graph.function(target)
                if target_fn is None:
                    continue
                if target_fn.is_async and (
                    not site.awaited or _is_service_module(target[0])
                ):
                    continue
                seen.add(location)
                yield Finding(
                    path=summary.path,
                    line=site.line,
                    col=site.col,
                    rule_id=self.rule_id,
                    message=(
                        f"call to {site.callee} inside async def {fn.name} "
                        f"reaches blocking {_blocking_chain(may, target)}; "
                        "offload via the worker pool or run_in_executor"
                    ),
                )


# --------------------------------------------------------------------- #
# RP202 — unawaited coroutines and fire-and-forget tasks                #
# --------------------------------------------------------------------- #

_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})


@register_project
class UnawaitedCoroutineRule(ProjectRule):
    """RP202: a coroutine nobody awaits silently does nothing.

    ``service.handle(...)`` without ``await`` is a no-op that *looks* like
    a request being served; ``asyncio.create_task(...)`` whose handle is
    dropped can be garbage-collected mid-flight and swallows exceptions.
    Both bugs pass every type check and most tests — exactly the class of
    defect static reachability is for.
    """

    rule_id = "RP202"
    summary = "unawaited coroutine or fire-and-forget task"

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        for module, fn in graph.functions():
            summary = graph.summary(module)
            if summary is None or summary.is_test:
                continue
            for site in fn.calls:
                if not site.stmt_expr or site.awaited:
                    continue
                terminal = site.callee.split(".")[-1]
                if terminal in _TASK_SPAWNERS:
                    yield Finding(
                        path=summary.path,
                        line=site.line,
                        col=site.col,
                        rule_id=self.rule_id,
                        message=(
                            f"{site.callee}(...) result is dropped; keep the "
                            "task reference and await or cancel it, or the "
                            "task can be garbage-collected mid-flight"
                        ),
                    )
                    continue
                target = graph.resolve(module, fn, site.callee)
                if target is None:
                    continue
                target_fn = graph.function(target)
                if target_fn is not None and target_fn.is_async:
                    yield Finding(
                        path=summary.path,
                        line=site.line,
                        col=site.col,
                        rule_id=self.rule_id,
                        message=(
                            f"coroutine {site.callee}(...) is never awaited; "
                            "the call creates a coroutine object and discards "
                            "it without running the body"
                        ),
                    )


# --------------------------------------------------------------------- #
# RP203 — determinism taint reachable from cached handlers              #
# --------------------------------------------------------------------- #

_UNSEEDED_RNG_NAMES = frozenset({"as_rng", "default_rng"})


def _taint_primitive(site: CallSite) -> Optional[str]:
    dotted = site.callee
    if dotted in _NONDETERMINISTIC_CALLS:
        return f"nondeterministic {dotted}()"
    terminal = dotted.split(".")[-1]
    if terminal in _UNSEEDED_RNG_NAMES and site.first_arg_none:
        return f"unseeded RNG via {dotted}(None)"
    return None


@register_project
class DeterminismTaintRule(ProjectRule):
    """RP203: nothing nondeterministic may feed a cacheable response.

    The persistent result cache (PR 6) replays any ``/v1/*`` POST response
    byte-identically, forever.  A wall-clock read or an unseeded generator
    anywhere in the handler's reach — including work offloaded to the pool,
    whose results come back into the payload — would be frozen into the
    cache on first computation and silently served stale ever after.  This
    is the RP103 per-file ban made transitive and cache-aware: roots are
    the ``_handle_*`` / ``_dispatch_post`` handler methods whose payloads
    the cache stores.
    """

    rule_id = "RP203"
    summary = "nondeterminism reachable from a cached /v1 handler"

    @staticmethod
    def _roots(graph: ProjectGraph) -> List[FuncKey]:
        roots: List[FuncKey] = []
        for module, fn in graph.functions():
            if not _is_service_module(module) or not fn.is_async:
                continue
            if fn.name.startswith("_handle_") or fn.name == "_dispatch_post":
                roots.append((module, fn.qualname))
        return roots

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        parents = graph.reachable(
            self._roots(graph), include_offloaded=True, include_deferred=True
        )
        for key in sorted(parents):
            fn = graph.function(key)
            summary = graph.summary(key[0])
            if fn is None or summary is None or summary.is_test:
                continue
            for site in fn.calls:
                taint = _taint_primitive(site)
                if taint is None:
                    continue
                chain = " -> ".join(ProjectGraph.chain(parents, key))
                yield Finding(
                    path=summary.path,
                    line=site.line,
                    col=site.col,
                    rule_id=self.rule_id,
                    message=(
                        f"{taint} reachable from a cached handler "
                        f"(via {chain}); the persistent result cache would "
                        "replay this value forever — thread an explicit seed "
                        "instead"
                    ),
                )


# --------------------------------------------------------------------- #
# RP204 — error responses must flow through schemas.error_payload       #
# --------------------------------------------------------------------- #


def _in_service_path(path: str) -> bool:
    parts = Path(path).parts
    return (
        "repro" in parts
        and "service" in parts
        and parts.index("service") == parts.index("repro") + 1
    )


def _is_error_status(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
        and node.value >= 400
    )


def _is_error_payload_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and dotted_name(node.func).split(".")[-1] == "error_payload"
    )


@register
class ErrorPayloadRule(Rule):
    """RP204: one audited error-body shape, everywhere.

    Clients (and the load generator's retry loop) parse error bodies;
    a handler that hand-rolls ``{"error": ...}`` drifts from the
    ``schemas.error_payload`` contract the moment either side changes.
    Flags ``(status >= 400, payload)`` pairs and ``render_response(status,
    {...})`` calls whose payload is not an ``error_payload(...)`` call.
    An encoded body, ``encode_payload(payload)``, is judged by the payload
    it encodes.  ``schemas.py`` itself (the one sanctioned constructor) is
    exempt.
    """

    rule_id = "RP204"
    summary = "non-2xx response built without schemas.error_payload"
    library_only = True

    def applies_to(self, ctx: ModuleContext) -> bool:
        if not _in_service_path(ctx.path) or ctx.path_endswith(
            "service", "schemas.py"
        ):
            return False
        return super().applies_to(ctx)

    def _payload_violation(self, payload: ast.AST) -> bool:
        """Payload expressions that build a body inline, bypassing schemas."""
        if (
            isinstance(payload, ast.Call)
            and dotted_name(payload.func).split(".")[-1] == "encode_payload"
            and payload.args
        ):
            payload = payload.args[0]
        return isinstance(payload, (ast.Dict, ast.DictComp)) or (
            isinstance(payload, ast.Call) and not _is_error_payload_call(payload)
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Tuple)
                and len(node.elts) == 2
                and _is_error_status(node.elts[0])
                and self._payload_violation(node.elts[1])
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "non-2xx (status, payload) built inline; construct the "
                    "body with schemas.error_payload(status, reason, detail)",
                )
            elif (
                isinstance(node, ast.Call)
                and dotted_name(node.func).split(".")[-1] == "render_response"
                and len(node.args) >= 2
                and (
                    _is_error_status(node.args[0])
                    or (
                        isinstance(node.args[0], ast.Attribute)
                        and node.args[0].attr == "status"
                    )
                )
                and self._payload_violation(node.args[1])
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "error response rendered from an inline payload; "
                    "construct the body with schemas.error_payload",
                )


# --------------------------------------------------------------------- #
# RP205 — resource hygiene                                              #
# --------------------------------------------------------------------- #

#: Calls that acquire an OS-level resource the caller must release.
_ACQUIRE_DOTTED = frozenset(
    {"socket.socket", "socket.create_connection", "os.fdopen"}
)
_ACQUIRE_TERMINAL = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})
_RELEASE_ATTRS = frozenset({"close", "shutdown", "release", "terminate"})


def _is_acquisition(node: ast.Call) -> bool:
    dotted = dotted_name(node.func)
    if not dotted:
        return False
    return (
        dotted == "open"
        or dotted in _ACQUIRE_DOTTED
        or dotted.split(".")[-1] in _ACQUIRE_TERMINAL
    )


@register
class ResourceHygieneRule(Rule):
    """RP205: every acquired socket/file/executor needs a release story.

    Leaked sockets exhaust file descriptors precisely under the load the
    sharded server exists to absorb; a leaked executor leaks *processes*.
    An acquisition is accepted when it is used as a context manager,
    stored on ``self`` (owned by an object with a lifecycle), passed to
    another call (ownership transfer, e.g. ``start_server(sock=sock)``),
    returned to the caller, or a ``.close()``/``.shutdown()`` on the bound
    name is visible in the same function.  Everything else is a leak
    until proven otherwise.
    """

    rule_id = "RP205"
    summary = "resource acquired without context manager or close evidence"
    library_only = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_acquisition(node):
                if not self._is_released(node, parents):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{dotted_name(node.func)}(...) acquired without a "
                        "with-block, ownership transfer or visible close; "
                        "wrap it in a context manager or close on all paths",
                    )

    # -- acceptance paths ---------------------------------------------- #

    def _is_released(
        self, node: ast.Call, parents: Dict[int, ast.AST]
    ) -> bool:
        parent = parents.get(id(node))
        # with open(...) as f:   /   async with ...
        cursor: Optional[ast.AST] = node
        while cursor is not None:
            up = parents.get(id(cursor))
            if isinstance(up, ast.withitem):
                return True
            if isinstance(up, (ast.stmt, ast.Module)):
                break
            cursor = up
        # start_server(socket.socket(...)) — ownership transfer
        if isinstance(parent, (ast.Call, ast.keyword, ast.Return)):
            return True
        # self.x = acquisition — object lifecycle owns it
        if isinstance(parent, ast.Assign):
            names = [t for t in parent.targets if isinstance(t, ast.Name)]
            if any(isinstance(t, ast.Attribute) for t in parent.targets):
                return True
            if names:
                scope = self._enclosing_scope(parent, parents)
                return self._name_released(names[0].id, scope)
        if isinstance(parent, ast.AnnAssign):
            if isinstance(parent.target, ast.Attribute):
                return True
            if isinstance(parent.target, ast.Name):
                scope = self._enclosing_scope(parent, parents)
                return self._name_released(parent.target.id, scope)
        return False

    @staticmethod
    def _enclosing_scope(
        node: ast.AST, parents: Dict[int, ast.AST]
    ) -> ast.AST:
        cursor: Optional[ast.AST] = node
        while cursor is not None:
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                return cursor
            cursor = parents.get(id(cursor))
        return node

    @staticmethod
    def _name_released(name: str, scope: ast.AST) -> bool:
        """Evidence that the local ``name`` is closed or handed off."""
        for node in ast.walk(scope):
            # name.close() / name.shutdown(...)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
                and node.func.attr in _RELEASE_ATTRS
            ):
                return True
            # some_call(name) / some_call(sock=name): ownership transfer
            if isinstance(node, ast.Call):
                operands = list(node.args) + [
                    kw.value for kw in node.keywords
                ]
                if any(
                    isinstance(arg, ast.Name) and arg.id == name
                    for arg in operands
                ):
                    return True
            # with name:  — context manager on the bound name
            if isinstance(node, ast.withitem):
                expr = node.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
            # return name / yield name — caller takes ownership
            if isinstance(node, (ast.Return, ast.Yield)) and (
                isinstance(node.value, ast.Name) and node.value.id == name
            ):
                return True
            # self.x = name — stored for the object lifecycle
            if isinstance(node, ast.Assign) and (
                isinstance(node.value, ast.Name) and node.value.id == name
            ):
                if any(
                    isinstance(t, ast.Attribute) for t in node.targets
                ):
                    return True
        return False


# --------------------------------------------------------------------- #
# RP206 — read-modify-write of shared state across an await             #
# --------------------------------------------------------------------- #


@register_project
class AwaitInterleavingRule(ProjectRule):
    """RP206: ``self.x`` read, then ``await``, then ``self.x`` written.

    asyncio is single-threaded but not atomic: every ``await`` is a
    scheduling point where another task may run the same handler and
    mutate the same object.  A counter bumped as ``read -> await ->
    write`` loses increments under concurrency even though the code has
    no threads — the classic check-then-act race, in coroutine clothing.
    The fix is to re-read after the await, mutate before it, or guard
    the critical section with an ``asyncio.Lock``.
    """

    rule_id = "RP206"
    summary = "self attribute read-modify-write spans an await point"

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        for module, fn in graph.functions():
            if not _is_service_module(module) or not fn.is_async:
                continue
            if fn.cls is None or not fn.attr_writes:
                continue
            summary = graph.summary(module)
            if summary is None or summary.is_test:
                continue
            await_lines = sorted(
                site.line for site in fn.calls if site.awaited
            )
            if not await_lines:
                continue
            yield from self._hazards(summary.path, fn, await_lines)

    def _hazards(
        self, path: str, fn: "FunctionInfo", await_lines: List[int]
    ) -> Iterator[Finding]:
        reads: Dict[str, List[int]] = {}
        for attr, line in fn.attr_reads:
            reads.setdefault(attr, []).append(line)
        reported: Set[str] = set()
        for attr, write_line in sorted(fn.attr_writes, key=lambda p: p[1]):
            if attr in reported or attr not in reads:
                continue
            for read_line in sorted(reads[attr]):
                if read_line > write_line:
                    break
                awaits_between = [
                    line
                    for line in await_lines
                    if read_line <= line <= write_line
                ]
                if awaits_between:
                    reported.add(attr)
                    yield Finding(
                        path=path,
                        line=write_line,
                        col=1,
                        rule_id=self.rule_id,
                        message=(
                            f"self.{attr} is read on line {read_line} and "
                            f"written on line {write_line} with an await on "
                            f"line {awaits_between[0]} in between; another "
                            f"task can interleave in async def {fn.name} — "
                            "re-read after the await or hold an asyncio.Lock"
                        ),
                    )
                    break
