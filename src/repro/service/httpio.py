"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

Just enough of the protocol for a JSON planning API: request line +
headers + ``Content-Length`` body in; out, either a buffered JSON body
(``render_response``) or a chunked transfer-encoded NDJSON stream
(``render_stream_head`` + ``encode_chunk`` per line + ``LAST_CHUNK``) for
the streaming endpoints.  ``keep-alive`` connection reuse on buffered
responses; streamed responses always close.  No TLS — this is an
in-cluster planning service, not a general web server.

This module is the one owner of the wire formats: :func:`encode_payload`
(a buffered body), :func:`encode_ndjson_line` (one streamed row) and
:func:`sweep_body` (a sweep body assembled from already-encoded rows).
A body is encoded once, where it is computed; framing never re-encodes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Sequence, Tuple

from repro.service.errors import BadRequestError, PayloadTooLargeError

__all__ = [
    "RequestHead",
    "read_request",
    "render_response",
    "render_stream_head",
    "encode_chunk",
    "encode_ndjson_line",
    "encode_payload",
    "sweep_body",
    "LAST_CHUNK",
    "NDJSON_CONTENT_TYPE",
    "REASONS",
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
]

#: Media type that opts a request into row-by-row NDJSON streaming.
NDJSON_CONTENT_TYPE = "application/x-ndjson"

#: Terminal frame of a chunked response (zero-length chunk, no trailers).
LAST_CHUNK = b"0\r\n\r\n"

#: Reason phrases for every status the service emits.
REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024


class RequestHead:
    """Parsed request line and headers (header names lower-cased)."""

    __slots__ = ("method", "path", "version", "headers")

    def __init__(
        self, method: str, path: str, version: str, headers: Dict[str, str]
    ) -> None:
        self.method = method
        self.path = path
        self.version = version
        self.headers = headers

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    @property
    def content_length(self) -> int:
        raw = self.headers.get("content-length", "0")
        try:
            length = int(raw)
        except ValueError:
            raise BadRequestError(f"invalid Content-Length: {raw!r}") from None
        if length < 0:
            raise BadRequestError(f"invalid Content-Length: {raw!r}")
        return length


def _parse_head(blob: bytes) -> RequestHead:
    try:
        text = blob.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 never fails
        raise BadRequestError("undecodable request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise BadRequestError(f"malformed request line: {lines[0]!r}")
    method, path, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise BadRequestError(f"unsupported HTTP version: {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequestError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return RequestHead(method, path.split("?", 1)[0], version, headers)


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[RequestHead, bytes]]:
    """Read one request; ``None`` on a cleanly closed idle connection.

    Raises
    ------
    BadRequestError
        On malformed framing (the caller answers 400 and closes).
    PayloadTooLargeError
        When head or body exceed the hard limits (answered with 413).
    """
    try:
        blob = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between requests
        raise BadRequestError("truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise PayloadTooLargeError("request head too large") from exc
    if len(blob) > MAX_HEADER_BYTES:
        raise PayloadTooLargeError("request head too large")
    head = _parse_head(blob[:-4])
    length = head.content_length
    if length > MAX_BODY_BYTES:
        raise PayloadTooLargeError(
            f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise BadRequestError("truncated request body") from exc
    return head, body


def render_response(
    status: int,
    body: bytes,
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Frame one already-encoded JSON body with its response head.

    ``extra_headers`` (e.g. ``{"Retry-After": "1"}`` on 429) are emitted
    verbatim after the framing headers.
    """
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if extra_headers:
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def render_stream_head() -> bytes:
    """Response head for a chunked 200 NDJSON stream (no body yet).

    Streamed responses carry no ``Content-Length`` — the body is framed
    with ``Transfer-Encoding: chunked`` and the connection closes after
    :data:`LAST_CHUNK`, so a truncated stream is always detectable (the
    peer sees EOF without the terminal chunk).
    """
    lines = [
        "HTTP/1.1 200 OK",
        f"Content-Type: {NDJSON_CONTENT_TYPE}",
        "Transfer-Encoding: chunked",
        "Connection: close",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def encode_chunk(data: bytes) -> bytes:
    """Frame one non-empty chunk (hex length, CRLF, payload, CRLF)."""
    if not data:
        raise ValueError("chunks must be non-empty; end streams with LAST_CHUNK")
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def encode_payload(payload: Dict[str, object]) -> bytes:
    """One buffered JSON body — canonical (sorted-key) UTF-8 JSON."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def encode_ndjson_line(payload: Dict[str, object]) -> bytes:
    """One NDJSON line — the row's :func:`encode_payload` plus the newline.

    Sorted keys make streamed bytes a pure function of the row dicts, so
    same-seed replays of a streaming endpoint are byte-identical on the
    wire, not just value-equal after parsing.
    """
    return encode_payload(payload) + b"\n"


def sweep_body(lines: Sequence[bytes]) -> bytes:
    """The buffered sweep body ``{"count": n, "rows": [...]}`` of NDJSON lines.

    ``lines`` are :func:`encode_ndjson_line` rows without their newline.
    The result is byte-equal to ``encode_payload({"rows": rows, "count":
    n})`` of the same rows: sorted keys put ``count`` first, and a nested
    row encodes exactly as it does alone.
    """
    return b'{"count": %d, "rows": [%s]}' % (len(lines), b", ".join(lines))
