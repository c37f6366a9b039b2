"""Single-thread asyncio HTTP/1.1 load generator.

At most two persistent keep-alive connections.  An open-loop run enqueues
each request at its due time (seeded Poisson offsets from
:mod:`traffic`); whichever connection is free takes it next.  Latency runs
from the due time, so a stall is charged to every request it delays, and
the generator reports separately how late it enqueued (``lateness``) and
how long a request waited for a free connection (``queue wait``).

Responses are only framed here, never parsed: payload checks run after
the timed window so they cost the window nothing.  NDJSON streams close
their connection; the generator reconnects right after each one.
"""

import asyncio
import json
import selectors
import time
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from traffic import Request

Address = Tuple[str, int]

T = TypeVar("T")


def run(main: Awaitable[T]) -> T:
    """``asyncio.run`` on a ``select(2)`` loop: its timeout has microsecond
    resolution where epoll rounds every wake-up up to a whole millisecond,
    which would make the generator enqueue up to 1 ms late."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(main)
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


class Sample:
    """What happened to one request, as seen by the client."""

    __slots__ = (
        "request", "tag", "due", "enqueued", "sent", "first", "done",
        "status", "body", "rows", "error",
    )

    def __init__(self, request: Request, tag: str) -> None:
        self.request = request
        self.tag = tag
        self.due = self.enqueued = self.sent = self.first = self.done = 0.0
        self.status = 0
        self.body = b""
        self.rows: List[bytes] = []
        self.error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        """Due time to the last byte (streams: to the terminal row)."""
        return (self.done - self.due) * 1e3

    @property
    def ttfr_ms(self) -> float:
        """Due time to the first row of a stream, or the first response
        bytes of a buffered response."""
        return (self.first - self.due) * 1e3


def _request_bytes(host: str, sample: Sample) -> bytes:
    request = sample.request
    lines = [
        f"{request.method} {request.path} HTTP/1.1",
        f"Host: {host}",
        f"X-Bench-Id: {sample.tag}",
    ]
    if request.body:
        lines += ["Content-Type: application/json", f"Content-Length: {len(request.body)}"]
    if request.stream:
        lines.append("Accept: application/x-ndjson")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + request.body


class Connection:
    """One keep-alive connection that re-opens itself after a close."""

    def __init__(self, address: Address) -> None:
        self.address = address
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self.opened = 0

    async def open(self) -> None:
        await self.close()
        self._reader, self._writer = await asyncio.open_connection(*self.address)
        self.opened += 1

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def exchange(self, sample: Sample, timeout_s: float) -> None:
        """Send one request and frame its response into ``sample``."""
        try:
            if self._writer is None:
                await self.open()
            keep = await asyncio.wait_for(self._exchange(sample), timeout_s)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, OSError, ValueError) as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
            keep = False
        if not keep:
            try:
                await self.open()
            except OSError:  # the next exchange retries and records the failure
                await self.close()

    async def _exchange(self, sample: Sample) -> bool:
        reader, writer = self._reader, self._writer
        assert reader is not None and writer is not None
        writer.write(_request_bytes(self.address[0], sample))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        sample.first = time.perf_counter()  # lint: ignore[RP103]
        status_line, _, rest = head[:-4].partition(b"\r\n")
        sample.status = int(status_line.split(b" ", 2)[1])
        headers: Dict[bytes, bytes] = {}
        for line in rest.split(b"\r\n"):
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip().lower()
        if headers.get(b"transfer-encoding") == b"chunked":
            while True:
                size = int((await reader.readuntil(b"\r\n"))[:-2], 16)
                if size == 0:
                    await reader.readexactly(2)
                    return False
                chunk = await reader.readexactly(size + 2)
                arrived = time.perf_counter()  # lint: ignore[RP103]
                if not sample.rows:
                    sample.first = arrived
                sample.rows.append(chunk[:-2])
                sample.done = arrived
        length = int(headers.get(b"content-length", b"0"))
        sample.body = await reader.readexactly(length) if length else b""
        sample.done = time.perf_counter()  # lint: ignore[RP103]
        return headers.get(b"connection") != b"close"


async def open_loop(
    address: Address,
    requests: Sequence[Request],
    tag: Callable[[Request], str],
    connections: int = 2,
    timeout_s: float = 60.0,
) -> List[Sample]:
    """Fire ``requests`` at their due offsets over ``connections`` links.

    Requests with equal offsets (e.g. all 0) make a closed loop of
    ``connections`` clients draining the list as fast as the server answers.
    """
    conns = [Connection(address) for _ in range(connections)]
    for conn in conns:
        await conn.open()
    queue: "asyncio.Queue[Optional[Sample]]" = asyncio.Queue()
    samples = [Sample(request, tag(request)) for request in requests]
    start = time.perf_counter() + 0.02  # lint: ignore[RP103]

    async def produce() -> None:
        for sample in samples:
            due = start + sample.request.due_s
            delay = due - time.perf_counter()  # lint: ignore[RP103]
            if delay > 0.0:
                await asyncio.sleep(delay)
            sample.due = due
            sample.enqueued = time.perf_counter()  # lint: ignore[RP103]
            queue.put_nowait(sample)
        for _ in conns:
            queue.put_nowait(None)

    async def consume(conn: Connection) -> None:
        while True:
            sample = await queue.get()
            if sample is None:
                return
            sample.sent = time.perf_counter()  # lint: ignore[RP103]
            await conn.exchange(sample, timeout_s)

    tasks = [asyncio.create_task(produce())]
    tasks += [asyncio.create_task(consume(conn)) for conn in conns]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        for conn in conns:
            await conn.close()
    return samples


async def closed_loop(
    address: Address,
    make_request: Callable[[int], Request],
    seconds: float,
    timeout_s: float,
) -> List[Sample]:
    """One client sending request *i + 1* when request *i* completes, for
    about ``seconds``: a request is started only while it is expected (from
    the last one's duration) to end less than half a request late."""
    conn = Connection(address)
    await conn.open()
    samples: List[Sample] = []
    start = time.perf_counter()  # lint: ignore[RP103]
    try:
        while not samples or (
            time.perf_counter() - start  # lint: ignore[RP103]
            + samples[-1].latency_ms / 2e3 < seconds
        ):
            request = make_request(len(samples))
            sample = Sample(request, str(request.index))
            sample.due = sample.enqueued = sample.sent = time.perf_counter()  # lint: ignore[RP103]
            await conn.exchange(sample, timeout_s)
            samples.append(sample)
    finally:
        await conn.close()
    return samples


async def get_json(address: Address, kind: str, tag: str) -> Dict[str, object]:
    """One ``GET`` (``/metrics``, ``/healthz``) on a fresh connection."""
    conn = Connection(address)
    sample = Sample(Request(index=0, due_s=0.0, kind=kind, body=b"", stream=False), tag)
    try:
        await conn.exchange(sample, 30.0)
    finally:
        await conn.close()
    if not sample.ok:
        raise RuntimeError(f"GET {kind} failed: {sample.status} {sample.error}")
    payload = json.loads(sample.body)
    if not isinstance(payload, dict):
        raise RuntimeError(f"GET {kind} returned {type(payload).__name__}, not an object")
    return payload
