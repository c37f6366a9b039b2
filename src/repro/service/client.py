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

Each call is one attempt.  A 429/503 answer's ``Retry-After`` hint is
kept on the error (:attr:`ServiceClientError.retry_after_s`); deciding
whether and when to try again is the caller's job — the load generator's
:class:`~repro.loadgen.spec.ClientPolicy` is the one retry policy.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.service.httpio import NDJSON_CONTENT_TYPE
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "ServiceClient",
    "ServiceClientError",
    "TRANSPORT_FAILURE_STATUS",
]

Payload = Dict[str, object]
Point = Tuple[float, float]
Axis = Union[float, Sequence[float]]

#: Synthetic status for failures below HTTP (refused, reset, timeout, ...).
TRANSPORT_FAILURE_STATUS = 599

#: What ``urllib``/``http.client`` raise when no usable response arrives.
_TRANSPORT_ERRORS = (
    urllib.error.URLError,
    socket.timeout,
    TimeoutError,
    ConnectionError,
    http.client.HTTPException,
)


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


class ServiceClient:
    """Synchronous JSON client bound to one service address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8123,
        timeout_s: float = 30.0,
    ) -> None:
        check_in_range(port, "port", 1, 65535)
        check_positive(timeout_s, "timeout_s")
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)

    # ------------------------------------------------------------------ #
    # Transport                                                          #
    # ------------------------------------------------------------------ #

    def _url(self, path: str) -> str:
        return f"http://{self.host}:{self.port}{path}"

    def _open(
        self, method: str, path: str, body: Optional[Payload], accept: str
    ) -> http.client.HTTPResponse:
        """Send one request and return the 2xx response, body unread.

        A non-2xx answer raises :class:`ServiceClientError` with its
        status, detail, payload and ``Retry-After`` hint; a transport
        failure raises it with status 599.
        """
        data = None
        headers = {"Accept": accept}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self._url(path), data=data, headers=headers, method=method
        )
        try:
            response: http.client.HTTPResponse = urllib.request.urlopen(
                req, timeout=self.timeout_s
            )
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
        except _TRANSPORT_ERRORS as exc:
            raise self._transport_failure(exc) from exc
        return response

    def _transport_failure(self, exc: BaseException) -> ServiceClientError:
        return ServiceClientError(
            TRANSPORT_FAILURE_STATUS,
            f"transport failure contacting {self.host}:{self.port}: "
            f"{type(exc).__name__}: {exc}",
        )

    def request(
        self, method: str, path: str, body: Optional[Payload] = None
    ) -> Payload:
        """One request; returns the JSON payload of a 2xx response."""
        with self._open(method, path, body, "application/json") as response:
            try:
                raw = response.read()
            except _TRANSPORT_ERRORS as exc:  # the body was cut short
                raise self._transport_failure(exc) from exc
            return self._decode(raw, response.status)

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
        """
        response = self._open(method, path, body, NDJSON_CONTENT_TYPE)
        return self._iter_ndjson(response)

    @staticmethod
    def _iter_ndjson(response: http.client.HTTPResponse) -> Iterator[Payload]:
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
                        raise ServiceClientError(
                            TRANSPORT_FAILURE_STATUS,
                            f"undecodable NDJSON line: {line[:200]!r}",
                        ) from exc
                    if not isinstance(row, dict):
                        raise ServiceClientError(
                            TRANSPORT_FAILURE_STATUS,
                            f"NDJSON line is not an object: {line[:200]!r}",
                        )
                    if row.get("row") == "error":
                        saw_error = True
                    rows += 1
                    yield row
        except _TRANSPORT_ERRORS as exc:
            if saw_error:
                # The missing terminal chunk after an error row is the
                # protocol's failure signal, not a transport fault: the
                # server delivered a structured failure.
                return
            raise ServiceClientError(
                TRANSPORT_FAILURE_STATUS,
                f"stream truncated: {type(exc).__name__}: {exc}",
            ) from exc
        if rows == 0:
            # http.client reads "chunked headers, then close" as a clean
            # empty body, but every stream this service emits carries at
            # least one line (the summary or ``done`` row) — zero rows can
            # only mean the connection died before the first chunk.
            raise ServiceClientError(
                TRANSPORT_FAILURE_STATUS,
                "stream truncated: connection closed before the first row",
            )

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
