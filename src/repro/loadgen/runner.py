"""The asyncio open-loop runner: fire a plan, record every request's fate.

The runner walks a built plan on a (scalable) wall clock: it sleeps to each
request's send offset, delivers any fault events scheduled at that index,
then dispatches the request on a bounded thread pool — open-loop, so slow
responses never throttle the offered load.  Each request runs the one
retry loop of the repository: :class:`~repro.service.client.ServiceClient`
makes single attempts, and :class:`~repro.loadgen.spec.ClientPolicy`
decides which statuses to retry and how long to back off (a server hint,
else jitter from a generator seeded per request index).  Each request is
reduced to one raw-fact :class:`~repro.loadgen.trace.RequestRecord`; the
collected records plus the serialised spec form the returned
:class:`~repro.loadgen.trace.Trace`.

Fault events take one path, the same for an in-process
:class:`~repro.service.testing.ThreadedServer` and a real binary: each is
POSTed to ``/chaos/faults`` (see :mod:`repro.service.faults`) — on a shard
supervisor's admin port when one is given, else on the service port — so
the target must run with ``--chaos-admin``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

from repro.loadgen.plan import PlannedRequest, build_plan
from repro.loadgen.spec import FaultEvent, TrafficSpec, traffic_to_mapping
from repro.loadgen.trace import RequestRecord, Trace
from repro.service.client import (
    ServiceClient,
    ServiceClientError,
    TRANSPORT_FAILURE_STATUS,
)
from repro.service.faults import CHAOS_FAULTS_PATH
from repro.utils.rng import as_rng, keyed_seed_sequence

__all__ = ["run_plan"]

Payload = Dict[str, object]


def default_sleeper(delay_s: float) -> None:
    """Really sleep (the production sleeper; tests inject a recorder)."""
    if delay_s > 0.0:
        time.sleep(delay_s)


def default_clock() -> float:
    """A monotonic clock in seconds (the production clock)."""
    return time.monotonic()  # lint: ignore[RP103]


def _deliver_fault(client: ServiceClient, event: FaultEvent) -> None:
    """POST one fault event to ``/chaos/faults``; a refusal is fatal.

    Raises
    ------
    ValueError
        When the target does not arm the event (403 without
        ``--chaos-admin``, ``kill_shard`` sent to a single server, ...).
        A plan whose faults cannot be delivered must fail, not silently
        run fault-free.
    """
    try:
        client.request("POST", CHAOS_FAULTS_PATH, asdict(event.request()))
    except ServiceClientError as exc:
        raise ValueError(
            f"fault event {event.action!r} (at request {event.at_request}) "
            f"was not delivered to {client.host}:{client.port}: {exc}"
        ) from exc


# --------------------------------------------------------------------- #
# Per-request execution                                                 #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Attempt:
    """Raw facts of one attempt (the final one lands in the record)."""

    status: int
    ok_verified: bool
    structured_error: bool
    retry_hint: bool
    truncated: bool
    timed_out: bool
    rows: int
    detail: str
    retry_after_s: Optional[float]


def _verify_buffered(kind: str, payload: Payload) -> bool:
    """Endpoint-specific 2xx payload verification."""
    if kind == "healthz":
        return payload.get("status") in ("ok", "degraded", "draining")
    if kind == "metrics":
        return "requests_total" in payload
    if kind == "ebar":
        value = payload.get("e_bar")
        return isinstance(value, float) and value > 0.0
    if kind in ("overlay", "overlay_sweep", "underlay", "underlay_sweep"):
        rows = payload.get("rows")
        return (
            isinstance(rows, list)
            and len(rows) > 0
            and payload.get("count") == len(rows)
        )
    if kind == "interweave":
        amplitudes = payload.get("amplitudes")
        return (
            isinstance(amplitudes, list)
            and payload.get("count") == len(amplitudes)
        )
    # buffered simulate
    rows = payload.get("rows")
    summary = payload.get("summary")
    return (
        isinstance(rows, list)
        and isinstance(summary, dict)
        and "digest" in summary
        and payload.get("count") == len(rows)
    )


def _verify_stream_end(kind: str, rows: List[Payload]) -> bool:
    """A streamed response's terminal row proves clean completion."""
    last = rows[-1] if rows else None
    if not isinstance(last, dict):
        return False
    if kind == "simulate_stream":
        return last.get("row") == "summary" and "digest" in last
    return last.get("done") is True and last.get("count") == len(rows) - 1


def _structured(exc: ServiceClientError) -> bool:
    """The error body carried the service's canonical shape."""
    payload = exc.payload
    return (
        isinstance(payload, dict)
        and payload.get("status") == exc.status
        and isinstance(payload.get("error"), str)
        and "detail" in payload
    )


def _timed_out(exc: ServiceClientError) -> bool:
    message = exc.message.lower()
    return exc.is_transport_failure and (
        "timed out" in message or "timeout" in message
    )


def _failure_attempt(
    exc: ServiceClientError, rows: int, *, row_error: bool = False
) -> _Attempt:
    timed_out = _timed_out(exc)
    if row_error:
        # A terminal error row: structured iff the row carried the full
        # error shape (status/error/detail), hinted iff it embedded
        # retry_after_s — mirroring the buffered error-payload contract.
        payload = exc.payload
        structured = (
            isinstance(payload, dict)
            and isinstance(payload.get("status"), int)
            and isinstance(payload.get("error"), str)
            and "detail" in payload
        )
        retry_hint = isinstance(payload, dict) and "retry_after_s" in payload
    else:
        structured = _structured(exc)
        retry_hint = exc.retry_after_s is not None or (
            isinstance(exc.payload, dict) and "retry_after_s" in exc.payload
        )
    return _Attempt(
        status=exc.status,
        ok_verified=False,
        structured_error=structured,
        retry_hint=retry_hint,
        truncated=exc.status == TRANSPORT_FAILURE_STATUS and not timed_out,
        timed_out=timed_out,
        rows=rows,
        detail=exc.message,
        retry_after_s=exc.retry_after_s,
    )


class _RequestWorker:
    """Executes one planned request end to end (runs on the thread pool)."""

    def __init__(
        self,
        spec: TrafficSpec,
        host: str,
        port: int,
        sleep: Callable[[float], None],
        clock: Callable[[], float],
    ) -> None:
        self._spec = spec
        self._host = host
        self._port = port
        self._sleep = sleep
        self._clock = clock

    def __call__(self, request: PlannedRequest) -> RequestRecord:
        policy = self._spec.client
        client = ServiceClient(
            self._host, self._port, timeout_s=policy.timeout_s
        )
        # Deterministic jitter: the retry schedule of request k depends only
        # on (seed, k), so replayed runs back off identically.
        rng = as_rng(keyed_seed_sequence(self._spec.seed, request.index))
        started = self._clock()
        attempt = 0
        while True:
            facts = self._attempt(client, request)
            can_retry = (
                attempt + 1 < policy.max_attempts
                and facts.status in policy.retry_on
            )
            if not can_retry:
                break
            self._sleep(policy.backoff_s(attempt, facts.retry_after_s, rng))
            attempt += 1
        latency_ms = 1e3 * (self._clock() - started)
        return RequestRecord(
            index=request.index,
            kind=request.kind,
            method=request.method,
            path=request.path,
            stream=request.stream,
            payload_digest=request.payload_digest,
            status=facts.status,
            ok_verified=facts.ok_verified,
            structured_error=facts.structured_error,
            retry_hint=facts.retry_hint,
            truncated=facts.truncated,
            timed_out=facts.timed_out,
            rows=facts.rows,
            retries=attempt,
            latency_ms=round(latency_ms, 3),
            detail=facts.detail,
        )

    def _attempt(
        self, client: ServiceClient, request: PlannedRequest
    ) -> _Attempt:
        if request.stream:
            return self._attempt_stream(client, request)
        return self._attempt_buffered(client, request)

    def _attempt_buffered(
        self, client: ServiceClient, request: PlannedRequest
    ) -> _Attempt:
        try:
            payload = client.request(request.method, request.path, request.body)
        except ServiceClientError as exc:
            return _failure_attempt(exc, rows=0)
        verified = _verify_buffered(request.kind, payload)
        count = payload.get("count")
        return _Attempt(
            status=200,
            ok_verified=verified,
            structured_error=False,
            retry_hint=False,
            truncated=False,
            timed_out=False,
            rows=count if isinstance(count, int) else 1,
            detail="" if verified else "payload verification failed",
            retry_after_s=None,
        )

    def _attempt_stream(
        self, client: ServiceClient, request: PlannedRequest
    ) -> _Attempt:
        rows: List[Payload] = []
        try:
            for row in client.request_stream(
                request.method, request.path, request.body
            ):
                rows.append(row)
        except ServiceClientError as exc:
            return _failure_attempt(exc, rows=len(rows))
        last = rows[-1] if rows else None
        if isinstance(last, dict) and last.get("row") == "error":
            status = last.get("status")
            retry_after = last.get("retry_after_s")
            exc = ServiceClientError(
                status
                if isinstance(status, int) and not isinstance(status, bool)
                else 500,
                str(last.get("detail", last.get("error", "stream failed"))),
                last,
                retry_after_s=float(retry_after)
                if isinstance(retry_after, (int, float))
                and not isinstance(retry_after, bool)
                else None,
            )
            return _failure_attempt(exc, rows=len(rows) - 1, row_error=True)
        verified = _verify_stream_end(request.kind, rows)
        return _Attempt(
            status=200,
            ok_verified=verified,
            structured_error=False,
            retry_hint=False,
            truncated=False,
            timed_out=False,
            rows=len(rows),
            detail="" if verified else "stream ended without its terminal row",
            retry_after_s=None,
        )


# --------------------------------------------------------------------- #
# The open loop                                                         #
# --------------------------------------------------------------------- #


def run_plan(
    spec: TrafficSpec,
    host: str,
    port: int,
    plan: Optional[List[PlannedRequest]] = None,
    admin_port: Optional[int] = None,
    sleep: Optional[Callable[[float], None]] = None,
    clock: Optional[Callable[[], float]] = None,
) -> Trace:
    """Execute ``spec`` against a listening service; return the full trace.

    ``plan`` defaults to :func:`build_plan(spec) <repro.loadgen.plan.build_plan>`
    (pass one in to reuse it).  Each fault event is POSTed to
    ``/chaos/faults`` just before request ``at_request`` dispatches: on
    ``admin_port`` (a shard supervisor's admin listener, which also serves
    ``kill_shard``) when given, else on ``port``.  A refused event raises
    ``ValueError`` naming the action and the server's detail.
    ``sleep``/``clock`` are injectable for tests.
    """
    requests = build_plan(spec) if plan is None else plan
    chaos = ServiceClient(
        host,
        port if admin_port is None else admin_port,
        timeout_s=spec.client.timeout_s,
    )
    events_at: Dict[int, List[FaultEvent]] = {}
    if requests:
        last_index = requests[-1].index
        for event in spec.faults:
            # Clamp to the plan: an event scheduled past the end fires
            # before the final request instead of never.
            events_at.setdefault(min(event.at_request, last_index), []).append(
                event
            )
    sleeper = sleep if sleep is not None else default_sleeper
    ticker = clock if clock is not None else default_clock
    worker = _RequestWorker(spec, host, port, sleeper, ticker)
    executor = ThreadPoolExecutor(max_workers=spec.max_concurrency)
    try:
        records = asyncio.run(
            _drive(spec, requests, events_at, chaos, worker, executor, ticker)
        )
    finally:
        executor.shutdown(wait=True)
    records.sort(key=lambda record: record.index)
    return Trace(
        spec=traffic_to_mapping(spec),
        records=records,
        meta={"n_requests": len(records), "host": host, "port": port},
    )


async def _drive(
    spec: TrafficSpec,
    requests: List[PlannedRequest],
    events_at: Dict[int, List[FaultEvent]],
    chaos: ServiceClient,
    worker: _RequestWorker,
    executor: ThreadPoolExecutor,
    clock: Callable[[], float],
) -> List[RequestRecord]:
    loop = asyncio.get_running_loop()
    started = clock()
    pending = []
    for request in requests:
        target_s = started + request.t_send_s * spec.time_scale
        delay_s = target_s - clock()
        if delay_s > 0.0:
            await asyncio.sleep(delay_s)
        for event in events_at.get(request.index, ()):
            # Fault delivery blocks on an HTTP call — run it off the loop,
            # but *await* it: the fault lands before this request
            # dispatches, pinning chaos to the plan index.
            await loop.run_in_executor(None, _deliver_fault, chaos, event)
        pending.append(loop.run_in_executor(executor, worker, request))
    results: List[RequestRecord] = list(await asyncio.gather(*pending))
    return results
