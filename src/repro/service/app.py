"""The planning service: routing, coalescing, caching and error mapping.

:class:`PlanningService` is transport-free — it maps ``(method, path,
body)`` to ``(status, payload)`` — so the same object sits behind the
asyncio TCP server, the test harness and (hypothetically) any other
transport.

Execution strategy per request:

* **single-point** requests (scalar ``d1`` / ``distance`` / ``point``, and
  table ``e_bar_b`` lookups) enter the request-coalescing scheduler:
  concurrent requests sharing a batch group are merged into one call of the
  PR-1 batch kernels and de-multiplexed.  The kernels are elementwise
  bit-identical to the scalar paths, so coalescing never changes a response.
* **sweep** requests (vector axes) and exact ``e_bar_b`` solves go to the
  bounded :class:`WorkerPool` — heavy work off the event loop, 429 when the
  queue is full.

Error mapping: :class:`ServiceError` subclasses carry their own status;
``ValueError``/``TypeError`` from the library become 400 (the request named
an impossible parameter), ``KeyError`` becomes 404 (off-grid or infeasible
table point).
"""

from __future__ import annotations

import asyncio
import json
import logging
from collections import OrderedDict
from dataclasses import asdict, replace
from typing import (
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
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
from repro.service.httpio import NDJSON_CONTENT_TYPE
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
from repro.service.simulate import (
    SimulationRunner,
    parse_simulate_request,
    simulate_rows,
)
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

#: Bounded size of the ``e_bar_b`` response cache (FIFO eviction).
EBAR_CACHE_SIZE = 4096

Payload = Dict[str, object]
Row = Dict[str, object]
Point = Tuple[float, float]

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


class RowStream:
    """A committed 200 NDJSON response: rows plus teardown bookkeeping.

    Returned by :meth:`PlanningService.handle_stream` once a streaming
    request has fully validated — from here on the transport writes the
    chunked head and relays rows.  :meth:`close` is idempotent and must
    run exactly once when the transport is done with the stream (clean
    end, client disconnect, or write failure): it closes the underlying
    async generator (killing a simulation child mid-flight if needed) and
    releases any concurrency slot via ``on_close``.
    """

    def __init__(
        self,
        rows: AsyncIterator[Row],
        on_close: Optional[Callable[[], None]] = None,
        content_type: str = NDJSON_CONTENT_TYPE,
    ) -> None:
        self.rows = rows
        self.content_type = content_type
        self._on_close = on_close
        self._closed = False

    async def close(self) -> None:
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
        if config.result_cache:
            cache = ResultCache(config.result_cache_dir)
            if cache.enabled:  # REPRO_NO_CACHE wins over the config flag
                self._result_cache = cache
        self._tables: Dict[str, EbarTable] = {}
        self._ebar_cache: "OrderedDict[Tuple[str, str, float, int, int, int], float]"
        self._ebar_cache = OrderedDict()
        base_seed = (
            config.seed
            if config.seed is not None
            else int(as_rng(None).integers(0, 2**63 - 1))
        )
        self._seed_root = spawn_seed_sequences(base_seed, 1)[0]

        window = config.coalesce_window_s
        batch_hook = self.metrics.observe_batch
        self._ebar_coalescer: Coalescer[_EbarKey, _EbarItem, float] = Coalescer(
            self._ebar_batch, window, config.max_coalesce, batch_hook
        )
        self._overlay_coalescer: Coalescer[_OverlayKey, float, Row] = Coalescer(
            self._overlay_batch, window, config.max_coalesce, batch_hook
        )
        self._underlay_coalescer: Coalescer[_UnderlayKey, float, Row] = Coalescer(
            self._underlay_batch, window, config.max_coalesce, batch_hook
        )
        self._interweave_coalescer: Coalescer[_InterweaveKey, Point, float] = Coalescer(
            self._interweave_batch, window, config.max_coalesce, batch_hook
        )

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def preload(self) -> None:
        """Solve (or load) the default-convention table before serving."""
        self._table(self.config.table_convention)

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
        """Flush pending batches and release the worker pool."""
        self.flush()
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
    ) -> Tuple[int, Payload]:
        """One request in, ``(status, JSON-payload)`` out.  Never raises."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.metrics.record_request(path)
        try:
            status, payload = await self._dispatch_with_deadline(method, path, body)
        except DeadlineExceededError as exc:
            self.metrics.deadline_timeout()
            status, payload = exc.status, self._error_body(
                exc.status, exc.reason, str(exc)
            )
        except ServiceError as exc:
            status, payload = exc.status, self._error_body(
                exc.status, exc.reason, str(exc)
            )
        except (ValueError, TypeError) as exc:
            status, payload = 400, error_payload(400, "bad request", str(exc))
        except KeyError as exc:
            detail = exc.args[0] if exc.args else str(exc)
            status, payload = 404, error_payload(404, "not found", str(detail))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - defensive 500 path
            logger.exception("internal error serving %s %s", method, path)
            status, payload = 500, error_payload(500, "internal error", str(exc))
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
        return status, payload

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
    ) -> Tuple[int, Payload]:
        """Run one request under the configured per-request deadline.

        Chaos latency (if armed) is injected *inside* the deadline scope,
        so an injected stall is cancelled and surfaced as 504 exactly like
        a genuinely slow sweep.  ``asyncio.wait_for`` cancels the handler
        coroutine at the deadline; a task already running inside a worker
        process finishes there and is discarded (processes cannot be
        preempted mid-compute), but the event loop and the connection are
        freed immediately.
        """
        timeout_s = self.config.request_timeout_s
        delay_s = self.faults.request_delay_s(path)
        if timeout_s is None:
            return await self._run_request(method, path, body, delay_s)
        try:
            return await asyncio.wait_for(
                self._run_request(method, path, body, delay_s), timeout_s
            )
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                f"request exceeded the {timeout_s * 1000.0:g} ms deadline "
                "and was cancelled"
            ) from None

    async def _run_request(
        self, method: str, path: str, body: bytes, delay_s: float
    ) -> Tuple[int, Payload]:
        if delay_s > 0.0:
            await asyncio.sleep(delay_s)
        return await self._dispatch(method, path, body)

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Payload]:
        allowed = ENDPOINTS.get(path)
        if allowed is None:
            raise NotFoundError(f"no such endpoint: {path}")
        if method != allowed:
            raise MethodNotAllowedError(f"{path} only accepts {allowed}")
        if path == "/healthz":
            return 200, {"status": self.health_status()}
        if path == "/metrics":
            snapshot = self.metrics.snapshot()
            snapshot["health"] = self.health_status()
            return 200, snapshot
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
        payload = await self._dispatch_post(path, data)
        if cache is not None and digest is not None:
            cache.put(digest, payload)
        return 200, payload

    async def _dispatch_post(self, path: str, data: object) -> Payload:
        """Route one parsed POST body to its endpoint handler."""
        if path == "/v1/ebar":
            return await self._handle_ebar(parse_ebar_request(data))
        if path == "/v1/overlay/feasible":
            return await self._handle_overlay(
                parse_overlay_request(data, self.config.max_sweep_points)
            )
        if path == "/v1/underlay/energy":
            return await self._handle_underlay(
                parse_underlay_request(data, self.config.max_sweep_points)
            )
        if path == "/v1/simulate":
            return await self._handle_simulate_buffered(data)
        return await self._handle_interweave(
            parse_interweave_request(data, self.config.max_sweep_points)
        )

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
    ) -> Union[Tuple[int, Payload], RowStream]:
        """Open one streaming request.  Never raises.

        Returns a :class:`RowStream` once the request has validated and
        its first unit of work is admitted — everything that can fail
        with a clean HTTP status (parse errors, 429 backpressure, 404)
        fails *here* and comes back as an ordinary ``(status, payload)``
        for a buffered error response.  After a RowStream is returned the
        transport is committed to a 200; mid-stream failures surface as a
        terminal ``{"row": "error"}`` line followed by connection close
        without the final chunk.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.metrics.record_request(path)
        try:
            stream = await self._open_stream(path, body)
        except ServiceError as exc:
            status, payload = exc.status, self._error_body(
                exc.status, exc.reason, str(exc)
            )
        except (ValueError, TypeError) as exc:
            status, payload = 400, error_payload(400, "bad request", str(exc))
        except KeyError as exc:
            detail = exc.args[0] if exc.args else str(exc)
            status, payload = 404, error_payload(404, "not found", str(detail))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - defensive 500 path
            logger.exception("internal error opening stream %s", path)
            status, payload = 500, error_payload(500, "internal error", str(exc))
        else:
            self.metrics.stream_opened()
            # Latency of a streamed response = time to commit (headers
            # ready), not time to drain the whole stream.
            self.metrics.record_response(200, (loop.time() - started) * 1000.0)
            return stream
        self.metrics.record_response(status, (loop.time() - started) * 1000.0)
        return status, payload

    async def _open_stream(self, path: str, body: bytes) -> RowStream:
        data = self._parse_json(body)
        if path == "/v1/simulate":
            spec = parse_simulate_request(data, self.config.max_sim_nodes)
            self.sims.acquire()
            rows = self.sims.stream(spec, self.config.sim_stall_timeout_s)
            return RowStream(self._count_rows(rows), on_close=self.sims.release)

        # Sweep endpoints: serve straight from the persistent result cache
        # when the identical body was answered before, else compute in
        # pool-sized segments and flush each one as it lands.
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
            overlay = parse_overlay_request(data, self.config.max_sweep_points)
            segments = self._segment_axis(overlay.d1)
            run = self._overlay_segment_runner(overlay)
        else:
            underlay = parse_underlay_request(data, self.config.max_sweep_points)
            segments = self._segment_axis(underlay.distances)
            run = self._underlay_segment_runner(underlay)

        # The first segment is admitted *before* committing to a 200, so
        # backpressure (429) and axis errors still get clean JSON replies.
        first = await run(segments[0])
        rows = self._stream_sweep(first, segments[1:], run, digest)
        return RowStream(self._count_rows(rows))

    def _segment_axis(
        self, axis: Tuple[float, ...]
    ) -> List[Tuple[float, ...]]:
        size = self.config.stream_segment_points
        return [axis[i : i + size] for i in range(0, len(axis), size)]

    def _overlay_segment_runner(
        self, request: OverlayRequest
    ) -> Callable[[Tuple[float, ...]], Awaitable[List[Row]]]:
        def run(axis: Tuple[float, ...]) -> Awaitable[List[Row]]:
            return self.pool.submit(
                work.overlay_rows, replace(request, d1=axis, scalar=False)
            )

        return run

    def _underlay_segment_runner(
        self, request: UnderlayRequest
    ) -> Callable[[Tuple[float, ...]], Awaitable[List[Row]]]:
        def run(axis: Tuple[float, ...]) -> Awaitable[List[Row]]:
            return self.pool.submit(
                work.underlay_rows, replace(request, distances=axis, scalar=False)
            )

        return run

    async def _stream_cached(self, cached: Payload) -> AsyncIterator[Row]:
        """Replay a cached sweep payload as the identical NDJSON stream."""
        rows = cached.get("rows")
        assert isinstance(rows, list)
        for row in rows:
            yield row
        yield {"done": True, "count": len(rows)}

    async def _stream_sweep(
        self,
        first: List[Row],
        remaining: List[Tuple[float, ...]],
        run: Callable[[Tuple[float, ...]], Awaitable[List[Row]]],
        digest: Optional[str],
    ) -> AsyncIterator[Row]:
        """Relay sweep segments; cache the assembled payload on success.

        Each segment runs under the per-request deadline (the streaming
        analogue of the buffered path's whole-request deadline); a
        deadline hit or mid-stream backpressure becomes a terminal error
        row.  The full-response cache entry is written only after every
        segment succeeded, and matches the buffered endpoint's payload
        byte for byte — so streamed and buffered requests share hits.
        """
        all_rows: List[Row] = list(first)
        for row in first:
            yield row
        timeout_s = self.config.request_timeout_s
        for segment in remaining:
            try:
                if timeout_s is None:
                    rows = await run(segment)
                else:
                    rows = await asyncio.wait_for(run(segment), timeout_s)
            except asyncio.TimeoutError:
                self.metrics.deadline_timeout()
                yield self._error_row(
                    504,
                    "stream failed",
                    f"sweep segment exceeded the {timeout_s:g} s deadline",
                )
                return
            except ServiceError as exc:
                yield self._error_row(exc.status, exc.reason, str(exc))
                return
            except (ValueError, KeyError) as exc:
                yield self._error_row(400, "bad request", str(exc))
                return
            all_rows.extend(rows)
            for row in rows:
                yield row
        cache = self._result_cache
        if cache is not None and digest is not None:
            cache.put(digest, {"rows": all_rows, "count": len(all_rows)})
        yield {"done": True, "count": len(all_rows)}

    async def _count_rows(self, rows: AsyncIterator[Row]) -> AsyncIterator[Row]:
        """Metrics wrapper: count every streamed row as it passes through."""
        async for row in rows:
            self.metrics.stream_row()
            yield row

    async def _handle_simulate_buffered(self, data: object) -> Payload:
        """`/v1/simulate` without streaming: the whole run, pool-backed.

        The rows are produced by the same pure function of the spec the
        child process runs, so buffered and streamed responses carry
        identical snapshots, summary and digest for the same body.
        """
        spec = parse_simulate_request(data, self.config.max_sim_nodes)
        rows = await self.pool.submit(simulate_rows, spec)
        return {"rows": rows[:-1], "summary": rows[-1], "count": len(rows) - 1}

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

    def _error_row(self, status: int, error: str, detail: str) -> Row:
        """A terminal mid-stream error line carrying its own status code.

        Streamed requests are committed to HTTP 200 before the failure
        happens, so the status that *would* have been sent rides inside
        the row — with the same in-body ``retry_after_s`` hint as a
        buffered 429/503 — and clients can map stream failures exactly
        like buffered ones.
        """
        row: Row = {"row": "error", "error": error, "detail": detail, "status": status}
        if status in (429, 503):
            row["retry_after_s"] = self.config.retry_after_s
        return row

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

    async def _handle_ebar(self, request: EbarRequest) -> Payload:
        cache_key = (
            request.solver,
            request.convention,
            request.p,
            request.b,
            request.mt,
            request.mr,
        )
        cached = self._ebar_cache.get(cache_key)
        if cached is not None:
            self.metrics.cache_hit()
            # _table inside _ebar_payload is a process-memoized memmap open
            # (O(1) np.load after the first build); accepted on the loop.
            return self._ebar_payload(request, cached)  # lint: ignore[RP201]
        self.metrics.cache_miss()
        if request.solver == "table":
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
        self._ebar_cache[cache_key] = e_bar
        while len(self._ebar_cache) > EBAR_CACHE_SIZE:
            self._ebar_cache.popitem(last=False)
        # Same memoized-table access as the cache-hit path above.
        return self._ebar_payload(request, e_bar)  # lint: ignore[RP201]

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

    async def _handle_overlay(self, request: OverlayRequest) -> Payload:
        if request.scalar:
            key: _OverlayKey = (
                request.m,
                request.bandwidth,
                request.p_direct,
                request.p_relay,
                request.convention,
            )
            rows = [await self._overlay_coalescer.submit(key, request.d1[0])]
        else:
            rows = await self.pool.submit(work.overlay_rows, request)
        return {"rows": rows, "count": len(rows)}

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

    async def _handle_underlay(self, request: UnderlayRequest) -> Payload:
        if request.scalar:
            key: _UnderlayKey = (
                request.p,
                request.mt,
                request.mr,
                request.d,
                request.bandwidth,
                request.convention,
            )
            rows = [await self._underlay_coalescer.submit(key, request.distances[0])]
        else:
            rows = await self.pool.submit(work.underlay_rows, request)
        return {"rows": rows, "count": len(rows)}

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

    async def _handle_interweave(self, request: InterweaveRequest) -> Payload:
        request = self._resolve_environment(request)
        delta = work.interweave_delta(request)
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
        payload: Payload = {
            "amplitudes": amplitudes,
            "count": len(amplitudes),
            "delta": delta,
        }
        if request.environment is not None:
            payload["seed_used"] = request.environment.seed
        return payload

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
