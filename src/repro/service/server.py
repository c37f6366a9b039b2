"""Asyncio TCP front end: connection handling, drain, signals.

``serve()`` is the one entry point: boot a :class:`PlanningService`, bind,
announce the port (as a ``{"event": "listening"}`` JSON line on stdout, so
supervisors and the bench harness can discover an ephemeral ``--port 0``),
then run until the stop event — SIGTERM/SIGINT by default — and drain
gracefully: stop accepting, flush open coalescing windows, wait up to
``drain_timeout_s`` for in-flight requests, close connections, release the
worker pool.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import signal
import sys
from typing import Callable, Dict, Optional

from repro.service.app import PlanningService, RowStream
from repro.service.config import ServiceConfig
from repro.service.errors import ServiceError
from repro.service.faults import CHAOS_PREFIX
from repro.service.httpio import (
    LAST_CHUNK,
    encode_chunk,
    encode_ndjson_line,
    encode_payload,
    read_request,
    render_response,
    render_stream_head,
)
from repro.service.schemas import error_payload

__all__ = ["ServiceServer", "serve"]

logger = logging.getLogger("repro.service")


class ServiceServer:
    """The TCP server wrapped around one :class:`PlanningService`."""

    def __init__(self, service: PlanningService) -> None:
        self.service = service
        self._server: Optional[asyncio.AbstractServer] = None
        self._admin_server: Optional[asyncio.AbstractServer] = None
        #: Open connections: each one's writer and the task serving it.
        self._connections: Dict[asyncio.StreamWriter, "asyncio.Task[None]"] = {}
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False

    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the real one)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def admin_port(self) -> Optional[int]:
        """The private loopback admin port (``None`` when not configured)."""
        if self._admin_server is None or not self._admin_server.sockets:
            return None
        return int(self._admin_server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Bind the listening socket(s) (``config.port`` 0 → ephemeral).

        With ``reuse_port`` the main listener binds with ``SO_REUSEPORT``
        so sibling shards share the port; otherwise the bind is exclusive.
        When ``admin_port`` is configured a second, loopback-only listener
        serves the same request handler so a supervisor can reach *this*
        process behind the kernel's connection balancing.
        """
        config = self.service.config
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=config.host,
            port=config.port,
            reuse_port=config.reuse_port,
        )
        if config.admin_port is not None:
            self._admin_server = await asyncio.start_server(
                self._handle_connection, host="127.0.0.1", port=config.admin_port
            )

    async def shutdown(self) -> None:
        """Graceful drain: unbind, flush, wait for in-flight, close.

        While draining, requests already being served (and pipelined
        requests on established keep-alive connections) still complete —
        answered with ``Connection: close`` and a ``/healthz`` readiness of
        ``draining`` — but the listening socket is gone, so new connections
        are refused immediately.
        """
        self._draining = True
        self.service.mark_draining()
        for listener in (self._server, self._admin_server):
            if listener is not None:
                listener.close()
                await listener.wait_closed()
        self.service.flush()
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.service.config.drain_timeout_s
            )
        except asyncio.TimeoutError:
            logger.warning(
                "drain timeout: force-closing with %d request(s) in flight",
                self._active,
            )
        tasks = list(self._connections.values())
        for writer in list(self._connections):
            writer.close()
        if tasks:
            # Let each connection task see its closed socket and finish;
            # a task still parked in read_request when the loop stops
            # would be cancelled there instead.
            await asyncio.wait(tasks, timeout=self.service.config.drain_timeout_s)
        self.service.close()

    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[writer] = task
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, TimeoutError):
            pass  # peer went away mid-exchange
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, TimeoutError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(reader)
            except ServiceError as exc:
                writer.write(
                    render_response(
                        exc.status,
                        encode_payload(error_payload(exc.status, exc.reason, str(exc))),
                        keep_alive=False,
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            head, body = request
            if head.path.startswith(CHAOS_PREFIX):
                # Routed ahead of every per-request fault hook: arming a
                # fault must never consume one.
                status, payload = self.service.handle_chaos(
                    head.method, head.path, body
                )
                writer.write(
                    render_response(status, encode_payload(payload), keep_alive=False)
                )
                await writer.drain()
                return
            if self.service.faults.take_drop_client(head.path):
                # Chaos hook: the connection dies without a single
                # response byte — the client sees a transport failure.
                return
            if self.service.wants_stream(head.method, head.path, head.headers):
                self._enter()
                try:
                    result = await self.service.handle_stream(
                        head.method, head.path, body
                    )
                    if isinstance(result, RowStream):
                        await self._relay_stream(result, writer, head.path)
                        return
                    status, reply = result
                    writer.write(
                        render_response(
                            status,
                            reply,
                            keep_alive=False,
                            extra_headers=self._extra_headers(status),
                        )
                    )
                    await writer.drain()
                    return
                finally:
                    self._exit()
            self._enter()
            try:
                status, reply = await self.service.handle(
                    head.method, head.path, body
                )
            finally:
                self._exit()
            keep_alive = head.keep_alive and not self._draining
            blob = render_response(
                status,
                reply,
                keep_alive=keep_alive,
                extra_headers=self._extra_headers(status),
            )
            # Chaos hook: an aborted response ships only its first half,
            # then the connection drops — the client sees a truncated body.
            abort = self.service.faults.take_abort(head.path)
            writer.write(blob[: max(1, len(blob) // 2)] if abort else blob)
            # The response is out: now publish its result-cache entry.
            self.service.flush_cache_writes()
            await writer.drain()
            if abort or not keep_alive:
                return

    async def _relay_stream(
        self, stream: RowStream, writer: asyncio.StreamWriter, path: str
    ) -> None:
        """Ship one committed NDJSON stream as a chunked 200 response.

        Every row goes out as its own chunk the moment it arrives; a
        sweep's already-encoded lines go out in one write.  A terminal
        ``{"row": "error"}`` line ends the stream *without* the final
        zero-length chunk, so clients can always distinguish a truncated
        stream from a complete one; streams that finish cleanly get
        :data:`LAST_CHUNK`.  The connection closes either way.

        Chaos hook: an armed ``truncate_stream`` fault relays that many
        complete rows, then writes *half* of the next encoded chunk and
        closes — a byte-level mid-row truncation no error row announces.
        """
        truncate_after = self.service.faults.take_truncate_stream(path)
        writer.write(render_stream_head())
        try:
            failed = False
            sent = 0
            async for item in stream.rows:
                if isinstance(item, dict):
                    chunks = [encode_chunk(encode_ndjson_line(item))]
                    failed = item.get("row") == "error"
                else:
                    chunks = [encode_chunk(line + b"\n") for line in item]
                if truncate_after is not None and sent + len(chunks) > truncate_after:
                    whole = truncate_after - sent
                    cut = chunks[whole]
                    writer.write(b"".join(chunks[:whole]) + cut[: max(1, len(cut) // 2)])
                    await writer.drain()
                    return
                writer.write(b"".join(chunks))
                await writer.drain()
                sent += len(chunks)
            if not failed:
                writer.write(LAST_CHUNK)
                await writer.drain()
        finally:
            await stream.close()
            self.service.flush_cache_writes()

    def _extra_headers(self, status: int) -> Optional[Dict[str, str]]:
        """Backpressure responses carry an explicit retry hint."""
        if status in (429, 503):
            seconds = max(1, math.ceil(self.service.config.retry_after_s))
            return {"Retry-After": str(seconds)}
        return None

    def _enter(self) -> None:
        self._active += 1
        self._idle.clear()

    def _exit(self) -> None:
        self._active -= 1
        if self._active == 0:
            self._idle.set()


async def serve(
    config: ServiceConfig,
    stop: Optional[asyncio.Event] = None,
    install_signal_handlers: bool = True,
    announce: bool = True,
    on_ready: Optional[Callable[[ServiceServer], None]] = None,
) -> None:
    """Run the planning service until ``stop`` (or SIGTERM/SIGINT).

    Parameters
    ----------
    config:
        Full server configuration.
    stop:
        Shutdown trigger; created internally when omitted.  Setting it (from
        any thread via ``loop.call_soon_threadsafe``) starts a graceful
        drain.
    install_signal_handlers:
        Bind SIGTERM/SIGINT to the stop event (skipped automatically where
        the loop does not support it, e.g. non-main threads).
    announce:
        Print the ``{"event": "listening", "host": ..., "port": ...}`` JSON
        line on stdout once bound.
    on_ready:
        Callback invoked with the listening :class:`ServiceServer` (the test
        harness uses it to learn the ephemeral port and signal readiness).
    """
    service = PlanningService(config)
    service.preload()
    server = ServiceServer(service)
    await server.start()

    stop_event = stop if stop is not None else asyncio.Event()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break
    if announce:
        announcement: Dict[str, object] = {
            "event": "listening",
            "host": config.host,
            "port": server.port,
        }
        if server.admin_port is not None:
            announcement["admin_port"] = server.admin_port
        if config.shard_index is not None:
            announcement["shard"] = config.shard_index
        print(json.dumps(announcement), flush=True)
    logger.info(
        "%s",
        json.dumps(
            {
                "event": "serving",
                "host": config.host,
                "port": server.port,
                "workers": config.workers,
                "coalesce_ms": config.coalesce_ms,
            },
            sort_keys=True,
        ),
    )
    if on_ready is not None:
        on_ready(server)
    try:
        await stop_event.wait()
    finally:
        await server.shutdown()
    logger.info("%s", json.dumps({"event": "stopped"}, sort_keys=True))
    sys.stdout.flush()
