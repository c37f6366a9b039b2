"""The planning service: routing, coalescing, caching and error mapping.

:class:`PlanningService` is transport-free — it maps ``(method, path,
body)`` to ``(status, body bytes)`` — so the same object sits behind the
asyncio TCP server, the test harness and (hypothetically) any other
transport.  A response body is encoded once, where it is computed (a
pooled sweep encodes in its worker), and from then on is only framed,
cached and replayed as those exact bytes.

Execution strategy per request:

* **single-point** requests (scalar ``d1`` / ``distance`` / ``point``, and
  table ``e_bar_b`` lookups) enter the request-coalescing scheduler:
  concurrent requests sharing a batch group are merged into one call of the
  PR-1 batch kernels and de-multiplexed.  The kernels are elementwise
  bit-identical to the scalar paths, so coalescing never changes a response.
* **sweep** requests (vector axes) and exact ``e_bar_b`` solves go to the
  bounded :class:`WorkerPool` — heavy work off the event loop, 429 when the
  queue is full.  A sweep is one pool task whether it is streamed or not.
* **simulations** run in a :class:`SimulationRunner` child process, one
  per run, streamed or not — 429 beyond ``max_sims``.

Streaming (``Accept: application/x-ndjson``) decides only the framing:
a streamed response relays the same rows the buffered body carries.

Error mapping: :class:`ServiceError` subclasses carry their own status;
``ValueError``/``TypeError``/``OverflowError`` from the library become 400
(the request named an impossible parameter, or one whose arithmetic
leaves float range), ``KeyError`` becomes 404 (off-grid or infeasible
table point).
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from collections import deque
from dataclasses import asdict, replace
from typing import (
    AsyncIterator,
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.energy.table import EbarTable
from repro.service import work
from repro.service.coalescer import Coalescer
from repro.service.config import ServiceConfig
from repro.service.errors import (
    BadRequestError,
    DeadlineExceededError,
    MethodNotAllowedError,
    NotFoundError,
    ServiceError,
)
from repro.service.faults import FaultInjector, parse_fault_request
from repro.service.httpio import NDJSON_CONTENT_TYPE, encode_payload, sweep_body
from repro.service.metrics import Metrics
from repro.service.pool import WorkerPool
from repro.service.rescache import ResultCache, canonical_digest
from repro.service.schemas import (
    EbarRequest,
    EnvironmentSpec,
    InterweaveRequest,
    OverlayRequest,
    UnderlayRequest,
    error_payload,
    parse_ebar_request,
    parse_interweave_request,
    parse_overlay_request,
    parse_underlay_request,
)
from repro.service.simulate import SimulationRunner, parse_simulate_request
from repro.utils.rng import as_rng, spawn_seed_sequences

__all__ = ["PlanningService", "RowStream", "ENDPOINTS", "STREAMABLE_ENDPOINTS"]

logger = logging.getLogger("repro.service")

#: Routable endpoints: ``path -> allowed method``.
ENDPOINTS: Dict[str, str] = {
    "/healthz": "GET",
    "/metrics": "GET",
    "/v1/ebar": "POST",
    "/v1/overlay/feasible": "POST",
    "/v1/underlay/energy": "POST",
    "/v1/interweave/pattern": "POST",
    "/v1/simulate": "POST",
}

#: Endpoints that stream NDJSON rows when the client sends
#: ``Accept: application/x-ndjson``; buffered JSON otherwise.
STREAMABLE_ENDPOINTS = frozenset(
    {"/v1/simulate", "/v1/overlay/feasible", "/v1/underlay/energy"}
)

Payload = Dict[str, object]
Row = Dict[str, object]
#: A sweep's NDJSON lines (no newlines), encoded where computed.
Lines = List[bytes]
#: One item of a :class:`RowStream`: a row the transport encodes, or Lines.
StreamItem = Union[Row, Lines]
Point = Tuple[float, float]
ResultT = TypeVar("ResultT")

_EbarKey = Tuple[str, int, int]  # (convention, mt, mr)
_EbarItem = Tuple[float, int]  # (p, b)
_OverlayKey = Tuple[int, float, float, float, str]
_UnderlayKey = Tuple[float, int, int, float, float, str]
_InterweaveKey = Tuple[
    Point,
    Point,
    float,
    Optional[float],
    Optional[Point],
    bool,
    Point,
    Optional[EnvironmentSpec],
]


def _response_is_pure(path: str, data: object) -> bool:
    """Whether this request's response is a pure function of its body.

    The one impure case: an interweave request with a stochastic
    environment (``n_scatterers > 0``) and no explicit seed — the service
    draws a fresh seed per request, so replaying a cached response would
    freeze what is meant to be a new random environment each time.  Such
    requests bypass the persistent result cache entirely.
    """
    if path != "/v1/interweave/pattern" or not isinstance(data, dict):
        return True
    env = data.get("environment")
    if not isinstance(env, dict):
        return True
    if env.get("seed") is not None:
        return True
    return bool(env.get("n_scatterers", 6) == 0)


def _check_finite_answer(name: str, values: Sequence[float]) -> None:
    """Refuse an interweave answer that left float range (400, not NaN).

    Extreme geometry (a point at ``1e308``, a ``1e-308`` wavelength) makes
    the phase arithmetic overflow; strict JSON has no ``NaN`` or
    ``Infinity``, so such an answer is a bad request, not a 200.
    """
    for value in values:
        if not math.isfinite(value):
            raise ValueError(
                f"interweave {name} is {float(value)!r}: the request's geometry "
                "leaves float range"
            )


class RowStream:
    """A committed 200 NDJSON response: rows plus teardown bookkeeping.

    Returned by :meth:`PlanningService.handle_stream` once a streaming
    request has fully validated — from here on the transport writes the
    chunked head and relays rows (see :data:`StreamItem`).  :meth:`close`
    is idempotent and must run exactly once when the transport is done
    with the stream (clean end, client disconnect, or write failure): it
    closes the underlying async generator (killing a simulation child
    mid-flight if needed) and releases any concurrency slot via
    ``on_close``.
    """

    def __init__(
        self,
        rows: AsyncIterator[StreamItem],
        on_close: Optional[Callable[[], None]] = None,
    ) -> None:
        self.rows = rows
        self._on_close = on_close
        self._closed = False

    async def close(self) -> None:
        """Close the row generator and run ``on_close``; later calls do nothing."""
        if self._closed:
            return
        self._closed = True
        aclose = getattr(self.rows, "aclose", None)
        if aclose is not None:
            await aclose()
        if self._on_close is not None:
            self._on_close()


class PlanningService:
    """Everything between the HTTP layer and the repro library."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.metrics = Metrics()
        #: Inert until ``POST /chaos/faults`` arms it (see handle_chaos).
        self.faults = FaultInjector()
        self.pool = WorkerPool(
            config.workers,
            config.queue_limit,
            self.metrics,
            max_restarts=config.max_pool_restarts,
            faults=self.faults,
        )
        self.sims = SimulationRunner(config.max_sims, self.metrics, self.faults)
        self._draining = False
        self._result_cache: Optional[ResultCache] = None
        #: Entries of computed responses not yet sent (flush_cache_writes).
        self._cache_writes: Deque[Tuple[str, bytes]] = deque()
        if config.result_cache:
            cache = ResultCache(config.result_cache_dir)
            if cache.enabled:  # REPRO_NO_CACHE wins over the config flag
                self._result_cache = cache
        self._tables: Dict[str, EbarTable] = {}
        base_seed = (
            config.seed
            if config.seed is not None
            else int(as_rng(None).integers(0, 2**63 - 1))
        )
        self._seed_root = spawn_seed_sequences(base_seed, 1)[0]

        window = config.coalesce_window_s
        batch_hook = self.metrics.observe_batch
        self._ebar_coalescer: Coalescer[_EbarKey, _EbarItem, float] = Coalescer(
            self._ebar_batch, window, on_batch=batch_hook
        )
        self._overlay_coalescer: Coalescer[_OverlayKey, float, Row] = Coalescer(
            self._overlay_batch, window, on_batch=batch_hook
        )
        self._underlay_coalescer: Coalescer[_UnderlayKey, float, Row] = Coalescer(
            self._underlay_batch, window, on_batch=batch_hook
        )
        self._interweave_coalescer: Coalescer[_InterweaveKey, Point, float] = Coalescer(
            self._interweave_batch, window, on_batch=batch_hook
        )

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def preload(self) -> None:
        """Solve the ``paper``-convention table, ``/v1/ebar``'s default."""
        self._table("paper")

    def mark_draining(self) -> None:
        """Flip the readiness view to ``draining`` (graceful-shutdown entry)."""
        self._draining = True

    def health_status(self) -> str:
        """The readiness view served by ``/healthz``.

        ``draining`` once graceful shutdown started, ``degraded`` while the
        worker pool's restart budget is exhausted (sweeps run inline on the
        event loop), ``ok`` otherwise.
        """
        if self._draining:
            return "draining"
        if self.pool.degraded:
            return "degraded"
        return "ok"

    def flush(self) -> None:
        """Flush every open coalescing window (graceful-drain path)."""
        self._ebar_coalescer.flush_all()
        self._overlay_coalescer.flush_all()
        self._underlay_coalescer.flush_all()
        self._interweave_coalescer.flush_all()

    def close(self) -> None:
        """Flush pending batches and cache writes; release the worker pool."""
        self.flush()
        self.flush_cache_writes()
        self.pool.shutdown()

    def _table(self, convention: str) -> EbarTable:
        table = self._tables.get(convention)
        if table is None:
            table = EbarTable(convention=convention)
            self._tables[convention] = table
        return table

    # ------------------------------------------------------------------ #
    # Request entry point                                                #
    # ------------------------------------------------------------------ #

    async def handle(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        """One request in, ``(status, JSON body bytes)`` out.  Never raises."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.metrics.record_request(path)
        try:
            status, blob = await self._dispatch_with_deadline(method, path, body)
        except Exception as exc:  # CancelledError is not an Exception
            status, payload = self._failure(exc, f"serving {method} {path}")
            blob = encode_payload(payload)
        latency_ms = (loop.time() - started) * 1000.0
        self.metrics.record_response(status, latency_ms)
        if self.config.request_log:
            logger.info(
                "%s",
                json.dumps(
                    {
                        "event": "request",
                        "method": method,
                        "path": path,
                        "status": status,
                        "latency_ms": round(latency_ms, 3),
                    },
                    sort_keys=True,
                ),
            )
        return status, blob

    def _failure(self, exc: Exception, context: str) -> Tuple[int, Payload]:
        """The error response an exception maps to (see the module doc)."""
        if isinstance(exc, DeadlineExceededError):
            self.metrics.deadline_timeout()
        if isinstance(exc, ServiceError):
            return exc.status, self._error_body(exc.status, exc.reason, str(exc))
        if isinstance(exc, (ValueError, TypeError, OverflowError)):
            return 400, error_payload(400, "bad request", str(exc))
        if isinstance(exc, KeyError):
            detail = exc.args[0] if exc.args else str(exc)
            return 404, error_payload(404, "not found", str(detail))
        logger.exception("internal error %s", context)  # pragma: no cover
        return 500, error_payload(500, "internal error", str(exc))  # pragma: no cover

    def handle_chaos(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Payload]:
        """One ``/chaos/*`` request: arm a fault event here.  Never raises.

        Served only with ``config.chaos_admin`` (403 otherwise).  The
        transport routes chaos requests here *before* any per-request
        fault hook, and they bypass the metrics, so arming a fault never
        consumes or counts as one.  ``kill_shard`` is refused with 400:
        only the shard supervisor can deliver it.
        """
        try:
            fault = parse_fault_request(self.config.chaos_admin, method, path, body)
            self.faults.arm(fault)
        except ServiceError as exc:
            return exc.status, self._error_body(exc.status, exc.reason, str(exc))
        except ValueError as exc:
            return 400, error_payload(400, "bad request", str(exc))
        return 200, {"fault": asdict(fault)}

    async def _dispatch_with_deadline(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        """Run one request under the configured per-request deadline.

        Chaos latency (if armed) is injected *inside* the deadline scope,
        so an injected stall is cancelled and surfaced as 504 exactly like
        a genuinely slow sweep.
        """
        delay_s = self.faults.request_delay_s(path)
        return await self._within_deadline(
            self._run_request(method, path, body, delay_s)
        )

    async def _within_deadline(self, work: Awaitable[ResultT]) -> ResultT:
        """Await ``work`` under the per-request deadline, if one is set.

        ``asyncio.wait_for`` cancels the work at the deadline and
        :class:`DeadlineExceededError` (504) is raised; a task already
        running inside a worker process finishes there and is discarded
        (processes cannot be preempted mid-compute), but the event loop
        and the connection are freed immediately.
        """
        timeout_s = self.config.request_timeout_s
        if timeout_s is None:
            return await work
        try:
            return await asyncio.wait_for(work, timeout_s)
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                f"request exceeded the {timeout_s * 1000.0:g} ms deadline "
                "and was cancelled"
            ) from None

    async def _run_request(
        self, method: str, path: str, body: bytes, delay_s: float
    ) -> Tuple[int, bytes]:
        if delay_s > 0.0:
            await asyncio.sleep(delay_s)
        return await self._dispatch(method, path, body)

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        allowed = ENDPOINTS.get(path)
        if allowed is None:
            raise NotFoundError(f"no such endpoint: {path}")
        if method != allowed:
            raise MethodNotAllowedError(f"{path} only accepts {allowed}")
        if path == "/healthz":
            return 200, encode_payload({"status": self.health_status()})
        if path == "/metrics":
            snapshot = self.metrics.snapshot()
            snapshot["health"] = self.health_status()
            return 200, encode_payload(snapshot)
        data = self._parse_json(body)
        cache = self._result_cache
        digest: Optional[str] = None
        if cache is not None and _response_is_pure(path, data):
            digest = canonical_digest(path, data)
            cached = cache.get(digest)
            if cached is not None:
                self.metrics.result_cache_hit()
                return 200, cached
            self.metrics.result_cache_miss()
        blob = await self._dispatch_post(path, data)
        if digest is not None:
            self._cache_writes.append((digest, blob))
        return 200, blob

    def flush_cache_writes(self) -> None:
        """Publish every queued result-cache entry.

        A computed response queues its entry instead of writing it; the
        transport calls this once it has written that response, or a
        stream's last chunk, so the entry write never delays the reply it
        caches.  An identical request that arrives afterwards is a hit.
        """
        cache = self._result_cache
        while cache is not None and self._cache_writes:
            cache.put(*self._cache_writes.popleft())

    async def _dispatch_post(self, path: str, data: object) -> bytes:
        """Route one parsed POST body to its endpoint handler."""
        if path == "/v1/ebar":
            return await self._handle_ebar(parse_ebar_request(data))
        if path == "/v1/overlay/feasible":
            return await self._handle_overlay(parse_overlay_request(data))
        if path == "/v1/underlay/energy":
            return await self._handle_underlay(parse_underlay_request(data))
        if path == "/v1/simulate":
            return await self._handle_simulate_buffered(data)
        return await self._handle_interweave(parse_interweave_request(data))

    # ------------------------------------------------------------------ #
    # Streaming (NDJSON) request path                                     #
    # ------------------------------------------------------------------ #

    def wants_stream(self, method: str, path: str, headers: Dict[str, str]) -> bool:
        """Whether this request opts into the NDJSON streaming path."""
        if method != "POST" or path not in STREAMABLE_ENDPOINTS:
            return False
        return NDJSON_CONTENT_TYPE in headers.get("accept", "").lower()

    async def handle_stream(
        self, method: str, path: str, body: bytes
    ) -> Union[Tuple[int, bytes], RowStream]:
        """Open one streaming request.  Never raises.

        Returns a :class:`RowStream` once the request has validated and,
        for a sweep, its one pool task is done — everything that can fail
        with a clean HTTP status (parse errors, 429 backpressure, 404, a
        sweep past the per-request deadline's 504) fails *here* and comes
        back as an ordinary ``(status, body)`` for a buffered error
        response, exactly as the buffered twin would answer.  After a
        RowStream is returned the transport is committed to a 200; a
        simulation that fails mid-run surfaces as a terminal ``{"row":
        "error"}`` line followed by connection close without the final
        chunk.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.metrics.record_request(path)
        try:
            stream = await self._within_deadline(self._open_stream(path, body))
        except Exception as exc:  # CancelledError is not an Exception
            status, payload = self._failure(exc, f"opening stream {path}")
            self.metrics.record_response(status, (loop.time() - started) * 1000.0)
            return status, encode_payload(payload)
        self.metrics.stream_opened()
        # Latency of a streamed response = time to commit (headers ready),
        # not time to drain the whole stream.
        self.metrics.record_response(200, (loop.time() - started) * 1000.0)
        return stream

    async def _open_stream(self, path: str, body: bytes) -> RowStream:
        data = self._parse_json(body)
        if path == "/v1/simulate":
            spec = parse_simulate_request(data)
            self.sims.acquire()
            rows = self.sims.stream(spec, self.config.sim_stall_timeout_s)
            return RowStream(self._count_rows(rows), on_close=self.sims.release)

        # Sweep endpoints: serve straight from the persistent result cache
        # when the identical body was answered before, else run the same
        # single pool task as the buffered twin and relay its lines.
        cache = self._result_cache
        digest: Optional[str] = None
        if cache is not None:
            digest = canonical_digest(path, data)
            cached = cache.get(digest)
            if cached is not None:
                self.metrics.result_cache_hit()
                return RowStream(self._count_rows(self._stream_cached(cached)))
            self.metrics.result_cache_miss()
        if path == "/v1/overlay/feasible":
            lines = await self.pool.submit(
                work.overlay_lines, parse_overlay_request(data)
            )
        else:
            lines = await self.pool.submit(
                work.underlay_lines, parse_underlay_request(data)
            )
        if digest is not None:
            self._cache_writes.append((digest, sweep_body(lines)))
        return RowStream(self._count_rows(self._stream_lines(lines)))

    async def _stream_cached(self, cached: bytes) -> AsyncIterator[StreamItem]:
        """Replay a cached sweep body as the identical NDJSON stream."""
        rows = json.loads(cached)["rows"]
        for row in rows:
            yield row
        yield {"done": True, "count": len(rows)}

    async def _stream_lines(self, lines: Lines) -> AsyncIterator[StreamItem]:
        """A computed sweep's lines, then its ``done`` row."""
        yield lines
        yield {"done": True, "count": len(lines)}

    async def _count_rows(
        self, rows: AsyncIterator[StreamItem]
    ) -> AsyncIterator[StreamItem]:
        """Metrics wrapper: count every streamed row as it passes through."""
        async for item in rows:
            self.metrics.stream_rows(1 if isinstance(item, dict) else len(item))
            yield item

    async def _handle_simulate_buffered(self, data: object) -> bytes:
        """`/v1/simulate` without streaming: the streamed run, collected.

        The rows come from the same gated child process a stream relays
        (see :meth:`SimulationRunner.collect`), so buffered and streamed
        responses carry identical snapshots, summary and digest for the
        same body, and a cancelled run frees its child at once.
        """
        spec = parse_simulate_request(data)
        rows = await self.sims.collect(spec, self.config.sim_stall_timeout_s)
        return encode_payload(
            {"rows": rows[:-1], "summary": rows[-1], "count": len(rows) - 1}
        )

    def _error_body(self, status: int, reason: str, detail: str) -> Payload:
        """A structured error payload, with the retry hint mirrored in-body.

        429/503 responses carry ``Retry-After`` as a header (see the
        transport's ``_extra_headers``); mirroring ``retry_after_s`` into
        the JSON body too means a client that only sees the payload — a
        mid-stream consumer, a logged error — still gets the backoff hint.
        """
        retry_after_s = (
            self.config.retry_after_s if status in (429, 503) else None
        )
        return error_payload(status, reason, detail, retry_after_s=retry_after_s)

    @staticmethod
    def _parse_json(body: bytes) -> object:
        if not body:
            raise BadRequestError("request body is empty; expected a JSON object")
        try:
            return json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from exc

    # ------------------------------------------------------------------ #
    # /v1/ebar                                                           #
    # ------------------------------------------------------------------ #

    async def _handle_ebar(self, request: EbarRequest) -> bytes:
        if request.solver == "table":
            # _table is a per-convention memo: preload() solves the default
            # grid at boot, so this is a dict read; another convention's
            # grid is solved here once (~50 ms), accepted on the loop.
            table = self._table(request.convention)  # lint: ignore[RP201]
            for value, grid, label in (
                (request.b, table.b_values, "b"),
                (request.mt, table.mt_values, "mt"),
                (request.mr, table.mr_values, "mr"),
            ):
                if value not in grid:
                    raise NotFoundError(f"{label}={value} not on the table grid")
            e_bar = await self._ebar_coalescer.submit(
                (request.convention, request.mt, request.mr),
                (request.p, request.b),
            )
        else:
            e_bar = await self.pool.submit(work.ebar_exact, request)
        # Same memoized _table read as above (only for the table solver).
        return encode_payload(self._ebar_payload(request, e_bar))  # lint: ignore[RP201]

    def _ebar_payload(self, request: EbarRequest, e_bar: float) -> Payload:
        payload: Payload = {
            "e_bar": e_bar,
            "p": request.p,
            "b": request.b,
            "mt": request.mt,
            "mr": request.mr,
            "solver": request.solver,
            "convention": request.convention,
        }
        if request.solver == "table":
            grid = self._table(request.convention).p_values
            payload["p_grid"] = min(grid, key=lambda g: abs(g - request.p))
        return payload

    def _ebar_batch(
        self, key: _EbarKey, items: Sequence[_EbarItem]
    ) -> List[Union[float, Exception]]:
        """Coalesced table lookups: one vectorized grid read per batch."""
        convention, mt, mr = key
        table = self._table(convention)
        p = np.array([item[0] for item in items], dtype=float)
        b = np.array([item[1] for item in items], dtype=int)
        values = np.atleast_1d(np.asarray(table.lookup(p, b, mt, mr), dtype=float))
        results: List[Union[float, Exception]] = []
        for (p_req, b_req), value in zip(items, values):
            if np.isnan(value):
                p_grid = min(table.p_values, key=lambda g: abs(g - p_req))
                results.append(
                    NotFoundError(f"grid point p={p_grid}, b={b_req} is infeasible")
                )
            else:
                results.append(float(value))
        return results

    # ------------------------------------------------------------------ #
    # /v1/overlay/feasible                                               #
    # ------------------------------------------------------------------ #

    async def _handle_overlay(self, request: OverlayRequest) -> bytes:
        if not request.scalar:
            return await self.pool.submit(work.overlay_body, request)
        key: _OverlayKey = (
            request.m,
            request.bandwidth,
            request.p_direct,
            request.p_relay,
            request.convention,
        )
        row = await self._overlay_coalescer.submit(key, request.d1[0])
        return encode_payload({"rows": [row], "count": 1})

    def _overlay_batch(
        self, key: _OverlayKey, items: Sequence[float]
    ) -> List[Union[Row, Exception]]:
        m, bandwidth, p_direct, p_relay, convention = key

        def run(d1_values: Sequence[float]) -> List[Row]:
            return work.overlay_rows(
                OverlayRequest(
                    d1=tuple(d1_values),
                    m=m,
                    bandwidth=bandwidth,
                    p_direct=p_direct,
                    p_relay=p_relay,
                    convention=convention,
                )
            )

        return self._batch_with_fallback(items, run)

    # ------------------------------------------------------------------ #
    # /v1/underlay/energy                                                #
    # ------------------------------------------------------------------ #

    async def _handle_underlay(self, request: UnderlayRequest) -> bytes:
        if not request.scalar:
            return await self.pool.submit(work.underlay_body, request)
        key: _UnderlayKey = (
            request.p,
            request.mt,
            request.mr,
            request.d,
            request.bandwidth,
            request.convention,
        )
        row = await self._underlay_coalescer.submit(key, request.distances[0])
        return encode_payload({"rows": [row], "count": 1})

    def _underlay_batch(
        self, key: _UnderlayKey, items: Sequence[float]
    ) -> List[Union[Row, Exception]]:
        p, mt, mr, d, bandwidth, convention = key

        def run(distances: Sequence[float]) -> List[Row]:
            return work.underlay_rows(
                UnderlayRequest(
                    p=p,
                    mt=mt,
                    mr=mr,
                    d=d,
                    distances=tuple(distances),
                    bandwidth=bandwidth,
                    convention=convention,
                )
            )

        return self._batch_with_fallback(items, run)

    @staticmethod
    def _batch_with_fallback(
        items: Sequence[float],
        run: Callable[[Sequence[float]], List[Row]],
    ) -> List[Union[Row, Exception]]:
        """Vectorize the whole batch; on failure, price items one by one.

        The sweep kernels raise ``ValueError`` for the *whole* axis when any
        point is infeasible; re-running per item restores exactly the
        response each request would have produced alone.
        """
        try:
            return list(run(items))
        except (ValueError, KeyError):
            results: List[Union[Row, Exception]] = []
            for item in items:
                try:
                    results.append(run([item])[0])
                except (ValueError, KeyError) as exc:
                    results.append(exc)
            return results

    # ------------------------------------------------------------------ #
    # /v1/interweave/pattern                                             #
    # ------------------------------------------------------------------ #

    async def _handle_interweave(self, request: InterweaveRequest) -> bytes:
        request = self._resolve_environment(request)
        delta = work.interweave_delta(request)
        _check_finite_answer("delta", [delta])
        # Pass the solved offset on, so the amplitudes never solve it again.
        request = replace(request, delta=delta, pr=None)
        if request.scalar:
            key: _InterweaveKey = (
                request.st1,
                request.st2,
                request.wavelength,
                request.delta,
                request.pr,
                request.exact_null,
                request.amplitudes,
                request.environment,
            )
            amplitudes = [
                await self._interweave_coalescer.submit(key, request.points[0])
            ]
        else:
            amplitudes = await self.pool.submit(work.interweave_amplitudes, request)
        _check_finite_answer("amplitude", amplitudes)
        payload: Payload = {
            "amplitudes": amplitudes,
            "count": len(amplitudes),
            "delta": delta,
        }
        if request.environment is not None:
            payload["seed_used"] = request.environment.seed
        return encode_payload(payload)

    def _resolve_environment(self, request: InterweaveRequest) -> InterweaveRequest:
        """Pin the environment seed *before* dispatch.

        A stochastic environment requested without a seed gets one from the
        service's per-task ``SeedSequence.spawn`` stream, so pooled, inline
        and coalesced execution all construct the identical environment —
        and the response can echo ``seed_used`` for exact replay.
        """
        spec = request.environment
        if spec is None or spec.seed is not None or spec.n_scatterers == 0:
            return request
        child = self._seed_root.spawn(1)[0]
        seed = int(child.generate_state(1, np.uint64)[0])
        return replace(request, environment=replace(spec, seed=seed))

    def _interweave_batch(
        self, key: _InterweaveKey, items: Sequence[Point]
    ) -> List[Union[float, Exception]]:
        st1, st2, wavelength, delta, pr, exact_null, amplitudes, environment = key
        values = work.interweave_amplitudes(
            InterweaveRequest(
                st1=st1,
                st2=st2,
                wavelength=wavelength,
                points=tuple(items),
                delta=delta,
                pr=pr,
                exact_null=exact_null,
                amplitudes=amplitudes,
                environment=environment,
            )
        )
        return list(values)
