"""Span recording around the public callables of each layer, from outside.

Nothing under ``src/`` knows about tracing: :class:`Patches` replaces
module attributes and class methods with timing wrappers (made with
``functools.wraps``, so a pooled work function still pickles by name) and
puts the originals back on :meth:`Patches.restore`.  Names are patched
where they are looked up — ``repro.service.server.read_request``,
``repro.service.app.canonical_digest`` — not where they are defined.

A span is ``(id, parent id, name, request id, start, end, attribute)``.
The parent is whichever span was open in the same asyncio task (a
``ContextVar``), so async spans of interleaved requests never adopt each
other.  The request id is the ``X-Bench-Id`` header, read by the
``read_request`` wrapper and inherited by every span of that connection
task; coalescer flushes run in the first submitter's context.  Spans stay
in memory and are written out once, at shutdown.

Span times come from ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on
Linux: one host-wide clock, so a span taken in the traced server and a
timestamp taken in the load generator can be subtracted directly (the
``read_request`` time runs from the generator's send to the server's parse).
"""

import contextvars
import functools
import itertools
import json
import pathlib
import time
from typing import Any, Callable, Iterator, List, Optional, Tuple


Span = Tuple[int, Optional[int], str, Optional[str], float, float, Any]
Attribute = Callable[[Tuple[Any, ...], Any], Any]

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "bench_span", default=None
)
_REQUEST: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "bench_request", default=None
)

#: Span names of the in-process simulation layers, by layer.
ENERGY = "energy.model"
COMIMONET = "network.comimonet.build"
ROUTE = "network.graph.route"
MOBILITY = "network.mobility.step"
KERNEL_RUN = "simulation.kernel.run"
CALLBACK = "scenario.runtime.callback"
RUNTIME_INIT = "scenario.runtime.init"
RUNTIME_RUN = "scenario.runtime.run"


class SpanLog:
    """Closed spans, in the order they ended."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()

    def _open(self) -> Tuple[int, Optional[int], "contextvars.Token[Optional[int]]", float]:
        sid = next(self._ids)
        return sid, _CURRENT.get(), _CURRENT.set(sid), time.perf_counter()  # lint: ignore[RP103]

    def _close(self, opened: Tuple[int, Optional[int], Any, float], name: str, attr: Any) -> None:
        sid, parent, token, start = opened
        end = time.perf_counter()  # lint: ignore[RP103]
        _CURRENT.reset(token)
        self.spans.append((sid, parent, name, _REQUEST.get(), start, end, attr))

    def record(self, name: str, start: float, attr: Any = None) -> None:
        """A parentless span that ends now."""
        end = time.perf_counter()  # lint: ignore[RP103]
        self.spans.append((next(self._ids), None, name, _REQUEST.get(), start, end, attr))

    def sync(self, name: str, fn: Callable[..., Any], attr: Optional[Attribute] = None
             ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(opened, name, None)
                raise
            self._close(opened, name, attr(args, result) if attr else None)
            return result

        return wrapper

    def coroutine(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = self._open()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(opened, name, None)

        return wrapper

    def generator(self, name: str, fn: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
        """One span per resumption of the generator ``fn`` returns."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                opened = self._open()
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(opened, name, None)
                    return
                self._close(opened, name, None)
                yield item

        return wrapper

    def callback(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """A kernel event callback timed as a runtime handler span."""
        timed = self.sync(CALLBACK, fn)
        timed._bench_span = True
        return timed

    def dump(self, path: pathlib.Path, missing: List[str]) -> None:
        path.write_text(json.dumps({"spans": self.spans, "missing": missing}))


def load(path: pathlib.Path) -> Tuple[List[Span], List[str]]:
    """Spans and unpatched targets written by :meth:`SpanLog.dump`."""
    dumped = json.loads(path.read_text())
    return [tuple(span) for span in dumped["spans"]], dumped["missing"]


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; a name a later
        refactor removed is recorded as missing, and its metrics read 0."""
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# --------------------------------------------------------------------- #
# Layer wrappers                                                        #
# --------------------------------------------------------------------- #


def _read_request(log: SpanLog, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Tag the connection task with the request id; span from the call to
    the parsed request (analysis clips the idle wait before the send)."""

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()  # lint: ignore[RP103]
        result = await fn(*args, **kwargs)
        if result is not None:
            head, body = result
            _REQUEST.set(head.headers.get("x-bench-id"))
            log.record("service.httpio.read_request", start, len(body))
        return result

    return wrapper


def install_service_tracing(log: SpanLog, patches: Patches) -> None:
    """Wrap the serving layers of :mod:`repro.service`."""
    from repro.energy.table import EbarTable
    from repro.service import app, coalescer, metrics, pool, rescache, server, work

    patches.wrap(server, "read_request", lambda fn: _read_request(log, fn))
    patches.wrap(server, "render_response", lambda fn: log.sync(
        "service.httpio.render_response", fn, lambda args, blob: len(blob)))
    patches.wrap(server, "encode_ndjson_line", lambda fn: log.sync(
        "service.httpio.ndjson_line", fn))
    patches.wrap(server, "encode_chunk", lambda fn: log.sync("service.httpio.chunk", fn))
    for method in ("handle", "handle_stream"):
        patches.wrap(app.PlanningService, method, lambda fn: log.coroutine("service.app.handle", fn))
    patches.wrap(app, "canonical_digest", lambda fn: log.sync("service.rescache.digest", fn))
    for name in ("parse_ebar_request", "parse_overlay_request", "parse_underlay_request",
                 "parse_interweave_request", "parse_simulate_request"):
        patches.wrap(app, name, lambda fn: log.sync("service.schemas.parse", fn))
    patches.wrap(rescache.ResultCache, "get", lambda fn: log.sync(
        "service.rescache.get", fn, lambda args, payload: payload is not None))
    patches.wrap(rescache.ResultCache, "put", lambda fn: log.sync("service.rescache.put", fn))
    patches.wrap(coalescer.Coalescer, "submit", lambda fn: log.coroutine(
        "service.coalescer.submit", fn))
    patches.wrap(coalescer.Coalescer, "_flush", lambda fn: log.sync(
        "service.coalescer.flush", fn))
    patches.wrap(metrics.Metrics, "observe_batch", lambda fn: log.sync(
        "service.coalescer.batch", fn, lambda args, _: args[1]))
    patches.wrap(pool.WorkerPool, "submit", lambda fn: log.coroutine("service.pool.submit", fn))
    patches.wrap(EbarTable, "lookup", lambda fn: log.sync("service.work.ebar_lookup", fn))
    for name, span in (("overlay_rows", "service.work.overlay"),
                       ("underlay_rows", "service.work.underlay"),
                       ("interweave_amplitudes", "service.work.interweave")):
        patches.wrap(work, name, lambda fn, span=span: log.sync(span, fn))


def _schedule(log: SpanLog, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Time every callback the kernel will dispatch (once, however many
    scheduling methods it passes through)."""

    @functools.wraps(fn)
    def wrapper(self: Any, when: Any, callback: Any = None) -> Any:
        if callback is not None and not getattr(callback, "_bench_span", False):
            callback = log.callback(callback)
        return fn(self, when, callback)

    return wrapper


def install_simulation_tracing(log: SpanLog, patches: Patches) -> None:
    """Wrap the scenario runtime and the energy, network and kernel layers
    it drives (class-level, so every runtime built afterwards is traced)."""
    from repro.energy.model import EnergyModel
    from repro.network.comimonet import CoMIMONet
    from repro.network.graph import Graph
    from repro.network.mobility import RandomWaypointMobility
    from repro.scenario.runtime import ScenarioRuntime
    from repro.scenario.spec import scenario_from_mapping

    # Whichever kernel class the runtime builds for a default spec.
    kernel_cls = type(ScenarioRuntime(scenario_from_mapping({"n_nodes": 2})).kernel)
    patches.wrap(ScenarioRuntime, "__init__", lambda fn: log.sync(RUNTIME_INIT, fn))
    patches.wrap(ScenarioRuntime, "run", lambda fn: log.generator(RUNTIME_RUN, fn))
    for method in ("local_tx", "local_rx", "mimo_tx", "mimo_rx"):
        patches.wrap(EnergyModel, method, lambda fn: log.sync(ENERGY, fn))
    patches.wrap(CoMIMONet, "__init__", lambda fn: log.sync(COMIMONET, fn))
    patches.wrap(Graph, "shortest_weighted_path", lambda fn: log.sync(ROUTE, fn))
    patches.wrap(RandomWaypointMobility, "step", lambda fn: log.sync(MOBILITY, fn))
    patches.wrap(kernel_cls, "run", lambda fn: log.sync(KERNEL_RUN, fn))
    for method in ("schedule", "schedule_at", "schedule_many"):
        patches.wrap(kernel_cls, method, lambda fn: _schedule(log, fn))
