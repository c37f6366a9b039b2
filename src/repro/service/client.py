"""Stdlib (urllib) client for the planning service.

One thin, dependency-free wrapper per endpoint; non-2xx responses raise
:class:`ServiceClientError` carrying the HTTP status and the server's JSON
error payload.  The client is deliberately synchronous — it is what a
simulation script, a bench worker thread or a CI smoke test calls.
Streaming endpoints (``/v1/simulate`` and the sweep endpoints under
``Accept: application/x-ndjson``) are exposed as generators yielding one
row dict per NDJSON line (see :meth:`ServiceClient.request_stream`).

Transport failures (connection refused/reset, DNS errors, timeouts, a
response truncated mid-body) never leak raw ``urllib``/``socket``
exceptions: they are re-raised as :class:`ServiceClientError` with the
synthetic status :data:`TRANSPORT_FAILURE_STATUS` (599), so callers handle
exactly one exception type for "the request did not produce a usable
response".

Resilience is opt-in per client: pass a
:class:`~repro.service.retry.RetryPolicy` to retry transport failures and
429/503 responses with jittered exponential backoff (honoring the
server's ``Retry-After`` hint), and/or a
:class:`~repro.service.retry.CircuitBreaker` to fail fast after repeated
transport failures instead of hammering a dead endpoint.  Both sleeps and
clocks are injectable, so retry behavior is testable without waiting.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.service.httpio import NDJSON_CONTENT_TYPE
from repro.service.retry import CircuitBreaker, RetryPolicy, default_sleeper
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "ServiceClient",
    "ServiceClientError",
    "CircuitOpenError",
    "TRANSPORT_FAILURE_STATUS",
    "STREAM_FAILURE_STATUS",
    "RETRYABLE_STATUSES",
]

Payload = Dict[str, object]
Point = Tuple[float, float]
Axis = Union[float, Sequence[float]]

#: Synthetic status for failures below HTTP (refused, reset, timeout, ...).
TRANSPORT_FAILURE_STATUS = 599

#: Fallback status for a terminal mid-stream error row carrying none.
STREAM_FAILURE_STATUS = 500

#: Statuses worth retrying: transport failures plus explicit backpressure.
RETRYABLE_STATUSES = frozenset({429, 503, TRANSPORT_FAILURE_STATUS})


class ServiceClientError(Exception):
    """A failed request: HTTP status (or 599) plus the server's payload."""

    def __init__(
        self,
        status: int,
        message: str,
        payload: Optional[Payload] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        check_in_range(status, "status", 100, 599)
        if retry_after_s is not None:
            check_non_negative(retry_after_s, "retry_after_s")
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.message = message
        self.payload: Payload = payload if payload is not None else {}
        #: Parsed ``Retry-After`` header of a 429/503 response (seconds).
        self.retry_after_s = retry_after_s

    @property
    def is_transport_failure(self) -> bool:
        """True when no HTTP response was received at all."""
        return self.status == TRANSPORT_FAILURE_STATUS


class CircuitOpenError(ServiceClientError):
    """The client's circuit breaker refused the call locally."""

    def __init__(self, message: str) -> None:
        super().__init__(503, message)


class ServiceClient:
    """Synchronous JSON client bound to one service address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8123,
        timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        check_in_range(port, "port", 1, 65535)
        check_positive(timeout_s, "timeout_s")
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self.retry = retry
        self.breaker = breaker
        self._sleep = sleep if sleep is not None else default_sleeper

    # ------------------------------------------------------------------ #
    # Transport                                                          #
    # ------------------------------------------------------------------ #

    def _url(self, path: str) -> str:
        return f"http://{self.host}:{self.port}{path}"

    def request(
        self, method: str, path: str, body: Optional[Payload] = None
    ) -> Payload:
        """One logical request; returns the JSON payload of a 2xx response.

        With a :class:`RetryPolicy` configured, transport failures and
        429/503 responses are retried (every endpoint is a deterministic
        pure function of its body, so replays are always safe); other
        failures raise immediately.  A configured breaker refuses calls
        with :class:`CircuitOpenError` while open.
        """
        attempt = 0
        while True:
            if self.breaker is not None and not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit breaker open after "
                    f"{self.breaker.consecutive_failures} consecutive "
                    f"transport failure(s) to {self.host}:{self.port}"
                )
            try:
                result = self._request_once(method, path, body)
            except ServiceClientError as exc:
                if self.breaker is not None:
                    if exc.is_transport_failure:
                        self.breaker.record_failure()
                    else:  # an HTTP response proves the transport works
                        self.breaker.record_success()
                retries_left = (
                    self.retry is not None
                    and attempt + 1 < self.retry.max_attempts
                    and exc.status in RETRYABLE_STATUSES
                )
                if not retries_left:
                    raise
                assert self.retry is not None
                self._sleep(self.retry.backoff_s(attempt, exc.retry_after_s))
                attempt += 1
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return result

    def _request_once(
        self, method: str, path: str, body: Optional[Payload]
    ) -> Payload:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self._url(path), data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as response:
                return self._decode(response.read(), response.status)
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            payload = self._safe_decode(raw)
            detail = str(payload.get("detail", raw.decode("utf-8", "replace")))
            raise ServiceClientError(
                exc.code,
                detail,
                payload,
                retry_after_s=_parse_retry_after(exc.headers.get("Retry-After")),
            ) from None
        except (
            urllib.error.URLError,
            socket.timeout,
            TimeoutError,
            ConnectionError,
            http.client.HTTPException,
        ) as exc:
            raise ServiceClientError(
                TRANSPORT_FAILURE_STATUS,
                f"transport failure contacting {self.host}:{self.port}: "
                f"{type(exc).__name__}: {exc}",
            ) from exc

    @staticmethod
    def _decode(raw: bytes, status: int) -> Payload:
        payload = ServiceClient._safe_decode(raw)
        if not payload and raw.strip():
            raise ServiceClientError(status, "response body is not a JSON object")
        return payload

    @staticmethod
    def _safe_decode(raw: bytes) -> Payload:
        try:
            decoded = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {}
        return decoded if isinstance(decoded, dict) else {}

    # ------------------------------------------------------------------ #
    # NDJSON streaming transport                                         #
    # ------------------------------------------------------------------ #

    def request_stream(
        self, method: str, path: str, body: Optional[Payload] = None
    ) -> Iterator[Payload]:
        """One streaming request: yields each NDJSON row as a dict.

        Sends ``Accept: application/x-ndjson`` and iterates the chunked
        response line by line.  Pre-commit failures (400/404/429/...)
        raise :class:`ServiceClientError` exactly like :meth:`request`.
        Mid-stream server failures arrive as a terminal
        ``{"row": "error", ...}`` line — yielded like any other row, after
        which the stream ends (the server intentionally omits the final
        chunk there, which this client recognises and swallows).  A
        truncation *without* a preceding error row raises
        :class:`ServiceClientError` with status 599.

        Streaming requests bypass the *retry policy* — a generator cannot
        safely replay a half-consumed stream (use :meth:`stream_rows` for
        retried, fully-materialized consumption).  The circuit breaker
        *is* consulted and updated: a truncated or dead stream counts as
        a transport failure exactly like a refused connection.
        """
        if self.breaker is not None and not self.breaker.allow():
            raise CircuitOpenError(
                f"circuit breaker open after "
                f"{self.breaker.consecutive_failures} consecutive "
                f"transport failure(s) to {self.host}:{self.port}"
            )
        data = None
        headers = {"Accept": NDJSON_CONTENT_TYPE}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self._url(path), data=data, headers=headers, method=method
        )
        try:
            response = urllib.request.urlopen(req, timeout=self.timeout_s)
        except urllib.error.HTTPError as exc:
            if self.breaker is not None:  # an HTTP error proves transport works
                self.breaker.record_success()
            raw = exc.read()
            payload = self._safe_decode(raw)
            detail = str(payload.get("detail", raw.decode("utf-8", "replace")))
            raise ServiceClientError(
                exc.code,
                detail,
                payload,
                retry_after_s=_parse_retry_after(exc.headers.get("Retry-After")),
            ) from None
        except (
            urllib.error.URLError,
            socket.timeout,
            TimeoutError,
            ConnectionError,
            http.client.HTTPException,
        ) as exc:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise ServiceClientError(
                TRANSPORT_FAILURE_STATUS,
                f"transport failure contacting {self.host}:{self.port}: "
                f"{type(exc).__name__}: {exc}",
            ) from exc
        return self._iter_ndjson(response)

    def _iter_ndjson(
        self, response: http.client.HTTPResponse
    ) -> Iterator[Payload]:
        saw_error = False
        rows = 0
        try:
            with response:
                for raw in response:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError as exc:
                        self._record_stream_failure()
                        raise ServiceClientError(
                            TRANSPORT_FAILURE_STATUS,
                            f"undecodable NDJSON line: {line[:200]!r}",
                        ) from exc
                    if not isinstance(row, dict):
                        self._record_stream_failure()
                        raise ServiceClientError(
                            TRANSPORT_FAILURE_STATUS,
                            f"NDJSON line is not an object: {line[:200]!r}",
                        )
                    if row.get("row") == "error":
                        saw_error = True
                    rows += 1
                    yield row
        except (
            http.client.HTTPException,
            ConnectionError,
            socket.timeout,
            TimeoutError,
        ) as exc:
            if saw_error:
                # The missing terminal chunk after an error row is the
                # protocol's failure signal, not a transport fault — the
                # server delivered a structured failure, so the transport
                # itself proved healthy.
                if self.breaker is not None:
                    self.breaker.record_success()
                return
            self._record_stream_failure()
            raise ServiceClientError(
                TRANSPORT_FAILURE_STATUS,
                f"stream truncated: {type(exc).__name__}: {exc}",
            ) from exc
        if rows == 0:
            # http.client reads "chunked headers, then close" as a clean
            # empty body, but every stream this service emits carries at
            # least one line (the summary or ``done`` row) — zero rows can
            # only mean the connection died before the first chunk.
            self._record_stream_failure()
            raise ServiceClientError(
                TRANSPORT_FAILURE_STATUS,
                "stream truncated: connection closed before the first row",
            )
        if self.breaker is not None:
            self.breaker.record_success()

    def _record_stream_failure(self) -> None:
        """Breaker accounting: a truncated stream is a transport failure."""
        if self.breaker is not None:
            self.breaker.record_failure()

    def stream_rows(
        self, method: str, path: str, body: Optional[Payload] = None
    ) -> List[Payload]:
        """One streaming request, fully consumed, with retry support.

        Materializes the whole NDJSON stream into a list — unlike
        :meth:`request_stream`, each attempt is consumed to completion,
        which makes retrying safe.  Three failure shapes are unified into
        :class:`ServiceClientError` and (with a :class:`RetryPolicy`)
        retried when their status is retryable:

        * pre-commit HTTP errors (400/404/429/...), exactly as
          :meth:`request`;
        * client-detected truncation — status 599, a transport failure;
        * a terminal ``{"row": "error"}`` line, raised with the status
          the row carries (e.g. mid-stream 429 backpressure with its
          in-body ``retry_after_s`` hint; :data:`STREAM_FAILURE_STATUS`
          when absent).

        Every streamed endpoint is a deterministic pure function of its
        body, so a retried stream replays byte-identically — from the
        server's result cache when one is configured.
        """
        attempt = 0
        while True:
            try:
                return self._stream_rows_once(method, path, body)
            except CircuitOpenError:
                raise
            except ServiceClientError as exc:
                retries_left = (
                    self.retry is not None
                    and attempt + 1 < self.retry.max_attempts
                    and exc.status in RETRYABLE_STATUSES
                )
                if not retries_left:
                    raise
                assert self.retry is not None
                self._sleep(self.retry.backoff_s(attempt, exc.retry_after_s))
                attempt += 1

    def _stream_rows_once(
        self, method: str, path: str, body: Optional[Payload]
    ) -> List[Payload]:
        """Consume one stream attempt; a terminal error row raises."""
        rows = list(self.request_stream(method, path, body))
        last = rows[-1] if rows else None
        if isinstance(last, dict) and last.get("row") == "error":
            status = last.get("status")
            retry_after = last.get("retry_after_s")
            raise ServiceClientError(
                status
                if isinstance(status, int) and not isinstance(status, bool)
                else STREAM_FAILURE_STATUS,
                str(last.get("detail", last.get("error", "stream failed"))),
                last,
                retry_after_s=float(retry_after)
                if isinstance(retry_after, (int, float))
                and not isinstance(retry_after, bool)
                else None,
            )
        return rows

    # ------------------------------------------------------------------ #
    # Endpoints                                                          #
    # ------------------------------------------------------------------ #

    def healthz(self) -> Payload:
        """``GET /healthz`` — readiness probe: ``ok``/``degraded``/``draining``."""
        return self.request("GET", "/healthz")

    def metrics_snapshot(self) -> Payload:
        """``GET /metrics`` — the full server counter snapshot."""
        return self.request("GET", "/metrics")

    def ebar(
        self,
        p: float,
        b: int,
        mt: int,
        mr: int,
        solver: str = "table",
        convention: Optional[str] = None,
    ) -> Payload:
        """``POST /v1/ebar`` — required received energy per bit ē_b.

        ``solver="table"`` snaps ``p`` to the precomputed grid (fast,
        cached, coalesced); ``solver="exact"`` runs the root solve in the
        worker pool.
        """
        body: Payload = {"p": p, "b": b, "mt": mt, "mr": mr, "solver": solver}
        if convention is not None:
            body["convention"] = convention
        return self.request("POST", "/v1/ebar", body)

    def overlay_feasible(
        self,
        d1: Axis,
        m: int,
        bandwidth: float,
        p_direct: Optional[float] = None,
        p_relay: Optional[float] = None,
        convention: Optional[str] = None,
    ) -> Payload:
        """``POST /v1/overlay/feasible`` — Algorithm 1 distance analysis.

        ``d1`` may be a scalar (coalesced) or a sequence (pooled sweep).
        """
        body = _overlay_body(d1, m, bandwidth, p_direct, p_relay, convention)
        return self.request("POST", "/v1/overlay/feasible", body)

    def overlay_feasible_stream(
        self,
        d1: Sequence[float],
        m: int,
        bandwidth: float,
        p_direct: Optional[float] = None,
        p_relay: Optional[float] = None,
        convention: Optional[str] = None,
    ) -> Iterator[Payload]:
        """Streaming ``POST /v1/overlay/feasible``: one row dict per point.

        The server computes the whole sweep, then sends one line per row;
        the stream ends with a ``{"done": true, "count": N}`` line.  Row
        values are identical to the buffered :meth:`overlay_feasible`
        response.
        """
        body = _overlay_body(d1, m, bandwidth, p_direct, p_relay, convention)
        return self.request_stream("POST", "/v1/overlay/feasible", body)

    def underlay_energy(
        self,
        p: float,
        mt: int,
        mr: int,
        d: float,
        distance: Axis,
        bandwidth: float,
        convention: Optional[str] = None,
    ) -> Payload:
        """``POST /v1/underlay/energy`` — Algorithm 2 PA-energy rows.

        ``distance`` may be a scalar (coalesced) or a sequence (pooled
        sweep).
        """
        body = _underlay_body(p, mt, mr, d, distance, bandwidth, convention)
        return self.request("POST", "/v1/underlay/energy", body)

    def underlay_energy_stream(
        self,
        p: float,
        mt: int,
        mr: int,
        d: float,
        distance: Sequence[float],
        bandwidth: float,
        convention: Optional[str] = None,
    ) -> Iterator[Payload]:
        """Streaming ``POST /v1/underlay/energy``: one row dict per point.

        The server computes the whole sweep, then sends one line per row;
        the stream ends with a ``{"done": true, "count": N}`` line.  Row
        values are identical to the buffered :meth:`underlay_energy`
        response.
        """
        body = _underlay_body(p, mt, mr, d, distance, bandwidth, convention)
        return self.request_stream("POST", "/v1/underlay/energy", body)

    def simulate(self, scenario: Payload) -> Payload:
        """Buffered ``POST /v1/simulate`` — the whole scenario at once.

        ``scenario`` is a :func:`repro.scenario.scenario_from_mapping`
        style mapping; the response carries every snapshot under
        ``rows`` plus the terminal ``summary`` row (with the replay
        digest) and ``count``.
        """
        return self.request("POST", "/v1/simulate", scenario)

    def simulate_stream(self, scenario: Payload) -> Iterator[Payload]:
        """Streaming ``POST /v1/simulate``: snapshots as they happen.

        Yields each periodic snapshot row while the scenario runs in a
        dedicated server-side process, ending with the ``summary`` row
        whose ``digest`` commits to every preceding snapshot — two
        same-seed streams are byte-identical on the wire.
        """
        return self.request_stream("POST", "/v1/simulate", scenario)

    def interweave_pattern(
        self,
        st1: Point,
        st2: Point,
        wavelength: float,
        point: Union[Point, Sequence[Point]],
        delta: Optional[float] = None,
        pr: Optional[Point] = None,
        exact_null: bool = False,
        amplitudes: Optional[Point] = None,
        environment: Optional[Payload] = None,
    ) -> Payload:
        """Sample the pairwise beam pattern.

        ``point`` may be one ``(x, y)`` pair (coalesced-lookup path) or a
        sequence of pairs (pooled sweep); a length-one *sequence of pairs*
        still takes the sweep path.
        """
        one_point = len(point) == 2 and not isinstance(point[0], (list, tuple))
        body: Payload = {"st1": st1, "st2": st2, "wavelength": wavelength}
        if one_point:
            body["point"] = point
        else:
            body["points"] = point
        if delta is not None:
            body["delta"] = delta
        if pr is not None:
            body["pr"] = pr
        if exact_null:
            body["exact_null"] = True
        if amplitudes is not None:
            body["amplitudes"] = amplitudes
        if environment is not None:
            body["environment"] = environment
        return self.request("POST", "/v1/interweave/pattern", body)


def _overlay_body(
    d1: Axis,
    m: int,
    bandwidth: float,
    p_direct: Optional[float],
    p_relay: Optional[float],
    convention: Optional[str],
) -> Payload:
    body: Payload = {"d1": d1, "m": m, "bandwidth": bandwidth}
    if p_direct is not None:
        body["p_direct"] = p_direct
    if p_relay is not None:
        body["p_relay"] = p_relay
    if convention is not None:
        body["convention"] = convention
    return body


def _underlay_body(
    p: float,
    mt: int,
    mr: int,
    d: float,
    distance: Axis,
    bandwidth: float,
    convention: Optional[str],
) -> Payload:
    body: Payload = {
        "p": p,
        "mt": mt,
        "mr": mr,
        "d": d,
        "distance": distance,
        "bandwidth": bandwidth,
    }
    if convention is not None:
        body["convention"] = convention
    return body


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Delta-seconds form of ``Retry-After`` (HTTP-dates are ignored)."""
    if value is None:
        return None
    try:
        parsed = float(value.strip())
    except ValueError:
        return None
    return parsed if parsed >= 0.0 else None
