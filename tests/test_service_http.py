"""HTTP framing: request parsing and response rendering."""

import asyncio
import json

import pytest

from repro.service.errors import BadRequestError, PayloadTooLargeError
from repro.service.httpio import (
    MAX_BODY_BYTES,
    RequestHead,
    encode_payload,
    read_request,
    render_response,
)


def _feed(blob: bytes):
    """Run read_request against an in-memory stream."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(main())


class TestReadRequest:
    def test_parses_request_line_headers_and_body(self):
        body = b'{"p": 0.001}'
        blob = (
            b"POST /v1/ebar?x=1 HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        head, got = _feed(blob)
        assert head.method == "POST"
        assert head.path == "/v1/ebar"  # query string stripped
        assert head.headers["host"] == "localhost"
        assert got == body

    def test_idle_close_returns_none(self):
        assert _feed(b"") is None

    def test_keep_alive_defaults(self):
        head = RequestHead("GET", "/", "HTTP/1.1", {})
        assert head.keep_alive is True
        head10 = RequestHead("GET", "/", "HTTP/1.0", {})
        assert head10.keep_alive is False
        closed = RequestHead("GET", "/", "HTTP/1.1", {"connection": "close"})
        assert closed.keep_alive is False

    @pytest.mark.parametrize(
        "blob",
        [
            b"NOT-A-REQUEST\r\n\r\n",
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1\r\nBadHeader\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",  # truncated
            b"GET /x HTTP/1.1\r\nHost: x",  # truncated head
        ],
    )
    def test_malformed_framing_raises_bad_request(self, blob):
        with pytest.raises(BadRequestError):
            _feed(blob)

    def test_oversized_body_raises_413(self):
        blob = (
            b"POST /x HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n"
        )
        with pytest.raises(PayloadTooLargeError):
            _feed(blob)


class TestRenderResponse:
    def test_renders_parsable_json_with_framing(self):
        raw = render_response(200, encode_payload({"a": 1}), keep_alive=True)
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Content-Type: application/json" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: keep-alive" in lines
        assert json.loads(body) == {"a": 1}

    def test_close_and_reason_phrases(self):
        raw = render_response(429, encode_payload({"error": "too many"}), keep_alive=False)
        assert raw.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        assert b"Connection: close\r\n" in raw

    def test_gateway_timeout_reason_phrase(self):
        raw = render_response(504, encode_payload({"error": "Gateway Timeout"}))
        assert raw.startswith(b"HTTP/1.1 504 Gateway Timeout\r\n")

    def test_extra_headers_are_emitted(self):
        raw = render_response(
            429,
            encode_payload({"error": "too many"}),
            keep_alive=False,
            extra_headers={"Retry-After": "2"},
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"\r\nRetry-After: 2\r\n" in head + b"\r\n"
        assert json.loads(body) == {"error": "too many"}

    def test_no_extra_headers_by_default(self):
        raw = render_response(429, encode_payload({"error": "too many"}))
        assert b"Retry-After" not in raw
