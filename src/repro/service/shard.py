"""Shard supervisor: N server processes behind one TCP port.

One asyncio event loop cannot use more than one core, so scaling the
planning service up a multi-core host means scaling *out*: the supervisor
spawns ``N`` independent server processes (shards) that all accept on the
same port and lets the kernel balance connections across them.

Every shard binds the shared ``(host, port)`` itself with
``SO_REUSEPORT`` (Linux, modern BSDs); the kernel hashes incoming
connections over the listening sockets.  The supervisor holds a bound
(never listening) placeholder socket so the port stays reserved across
shard restarts.

Supervision mirrors the worker-pool contract from
:class:`repro.service.pool.WorkerPool`: a crashed shard is replaced from a
bounded, count-based :class:`repro.service.pool.RestartBudget`; once the
budget is exhausted the fleet latches **degraded** (surviving shards keep
serving, nothing is respawned).  The supervisor itself never sleeps or
reads wall clocks — each shard gets a stdout-reader thread (for its
announce line) and a separate exit-watcher thread posting events onto the
loop.  The two must stay separate: the pipe only reaches EOF once every
forked descendant's inherited write end is gone, so exit detection gated
on the reader would hang on exactly the straggler it needs to reap.
Every shard leads its own process group, and a dead shard's group is
SIGKILLed before its replacement spawns: forked descendants (pool
workers, simulation children — even ones SIGSTOPped mid-fault) can
otherwise outlive the shard while still holding its ``SO_REUSEPORT``
listening socket, silently swallowing a share of new connections.

Because the kernel decides which shard answers any given connection, the
supervisor also runs a private loopback **admin** listener whose
``GET /healthz`` and ``GET /metrics`` fan out to every shard's own admin
port and return the aggregated view (counters summed, latency histograms
merged, per-shard liveness attached).  Each shard's seed stream is offset
by its index so two shards never hand out the same environment seed.

Chaos hook: with ``chaos_admin`` the admin listener also serves
``POST /chaos/faults`` (see :mod:`repro.service.faults`).  A ``kill_shard``
event SIGKILLs one live shard per count — the restart path above is then
exercised end to end; every other event is forwarded to each live shard's
own admin listener (shards inherit ``--chaos-admin``).  A replacement shard
boots with nothing armed: faults are armed at runtime, per event, never
inherited.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.service.config import ServiceConfig
from repro.service.errors import ServiceError
from repro.service.faults import (
    CHAOS_FAULTS_PATH,
    CHAOS_PREFIX,
    FaultRequest,
    parse_fault_request,
)
from repro.service.httpio import encode_payload, read_request, render_response
from repro.service.metrics import LatencyHistogram
from repro.service.pool import RestartBudget
from repro.service.schemas import error_payload
from repro.utils.validation import check_positive_int

__all__ = ["MAX_SHARD_RESTARTS", "ShardSupervisor", "aggregate_snapshots"]

logger = logging.getLogger("repro.service")

Payload = Dict[str, object]
_Event = Tuple[str, int, Dict[str, object]]

#: Crashed-shard replacements before the fleet latches degraded.
MAX_SHARD_RESTARTS = 3

#: How long one admin fan-out request to a shard may take (seconds).
_FANOUT_TIMEOUT_S = 5.0

#: Counters where the fleet-wide value is the max, not the sum, of shards.
_MAX_KEYS = {"max_batch_size", "peak_depth", "max_ms"}


class _Shard:
    """One supervised server process and what we know about it."""

    def __init__(self, index: int, proc: "subprocess.Popen[str]") -> None:
        self.index = index
        self.proc = proc
        self.port = 0
        self.admin_port: Optional[int] = None

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None


def _merge_sum(into: Dict[str, object], src: Dict[str, object]) -> None:
    """Recursively fold ``src``'s counters into ``into`` (sum or max)."""
    for key, value in src.items():
        if isinstance(value, dict):
            node = into.setdefault(key, {})
            if isinstance(node, dict):
                _merge_sum(node, value)
        elif isinstance(value, bool):
            into[key] = bool(into.get(key, False)) or value
        elif isinstance(value, (int, float)):
            previous = into.get(key, 0)
            base = previous if isinstance(previous, (int, float)) else 0
            if key in _MAX_KEYS:
                into[key] = max(base, value)
            else:
                into[key] = base + value
        else:
            into.setdefault(key, value)


def aggregate_snapshots(snapshots: List[Payload]) -> Payload:
    """Merge per-shard ``/metrics`` payloads into one fleet-wide view.

    Counters are summed (peaks/maxima take the max), latency histograms
    are merged bucket-wise and the quantiles re-interpolated, and derived
    ratios (mean batch size) are recomputed from the merged totals.  The
    per-shard ``health`` strings are dropped — the supervisor reports its
    own aggregate health.
    """
    merged: Payload = {}
    histogram: Optional[LatencyHistogram] = None
    for snapshot in snapshots:
        body = dict(snapshot)
        body.pop("health", None)
        latency = body.pop("latency_ms", None)
        _merge_sum(merged, body)
        if isinstance(latency, dict):
            piece = LatencyHistogram.from_snapshot(latency)
            if histogram is None:
                histogram = piece
            else:
                histogram.merge(piece)
    if histogram is not None:
        merged["latency_ms"] = histogram.snapshot()
    coalesce = merged.get("coalesce")
    if isinstance(coalesce, dict):
        batches = coalesce.get("batches")
        requests = coalesce.get("requests")
        if isinstance(batches, (int, float)) and isinstance(requests, (int, float)):
            coalesce["mean_batch_size"] = (
                requests / batches if batches else 0.0
            )
    return merged


class ShardSupervisor:
    """Spawn, balance, replace and aggregate ``N`` server shards."""

    def __init__(self, config: ServiceConfig, shards: int) -> None:
        self.config = config
        self.shards = check_positive_int(shards, "shards")
        self._budget = RestartBudget(MAX_SHARD_RESTARTS)
        self._port = 0
        self._placeholder: Optional[socket.socket] = None
        self._shards: Dict[int, _Shard] = {}
        self._degraded = False
        self._draining = False
        self._admin_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Created inside run(): on 3.9 a Queue binds the running loop.
        self._events: Optional["asyncio.Queue[_Event]"] = None

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The shared TCP port every shard accepts on."""
        if self._port == 0:
            raise RuntimeError("supervisor is not running")
        return self._port

    @property
    def admin_port(self) -> int:
        """The supervisor's aggregation endpoint (loopback only)."""
        if self._admin_server is None or not self._admin_server.sockets:
            raise RuntimeError("admin listener is not running")
        return int(self._admin_server.sockets[0].getsockname()[1])

    @property
    def degraded(self) -> bool:
        """True once the shard restart budget is exhausted."""
        return self._degraded

    @property
    def restarts_used(self) -> int:
        """Shard replacements performed so far."""
        return self._budget.used

    @property
    def alive_shards(self) -> int:
        """How many shard processes are currently running."""
        return sum(1 for shard in self._shards.values() if shard.alive)

    # ------------------------------------------------------------------ #
    # Socket setup                                                       #
    # ------------------------------------------------------------------ #

    def _bind(self) -> None:
        """Reserve the shared port with a bound, never listening socket.

        It receives none of the kernel's balanced connections, but holds
        the port for the shards to bind beside it, across restarts.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.config.host, self.config.port))
        except OSError:
            sock.close()
            raise
        self._placeholder = sock
        self._port = int(sock.getsockname()[1])

    def _close_sockets(self) -> None:
        if self._placeholder is not None:
            self._placeholder.close()
        self._placeholder = None

    # ------------------------------------------------------------------ #
    # Child processes                                                    #
    # ------------------------------------------------------------------ #

    def _child_argv(self, index: int) -> List[str]:
        config = self.config
        argv = [
            sys.executable,
            "-m",
            "repro.service",
            "--host",
            config.host,
            "--port",
            str(self._port),
            "--workers",
            str(config.workers),
            "--coalesce-ms",
            str(config.coalesce_ms),
            "--queue-limit",
            str(config.queue_limit),
            "--max-pool-restarts",
            str(config.max_pool_restarts),
            "--retry-after-s",
            str(config.retry_after_s),
            "--drain-timeout-s",
            str(config.drain_timeout_s),
            "--max-sims",
            str(config.max_sims),
            "--sim-stall-timeout-ms",
            str(
                0.0
                if config.sim_stall_timeout_ms is None
                else config.sim_stall_timeout_ms
            ),
            "--admin-port",
            "0",
            "--shard-index",
            str(index),
            "--reuse-port",
        ]
        if config.seed is not None:
            # Offset per shard: sibling seed streams must never collide.
            argv += ["--seed", str(config.seed + index)]
        if config.request_timeout_ms is not None:
            argv += ["--request-timeout-ms", str(config.request_timeout_ms)]
        if not config.request_log:
            argv += ["--no-request-log"]
        if config.chaos_admin:
            argv += ["--chaos-admin"]
        argv += ["--result-cache" if config.result_cache else "--no-result-cache"]
        if config.result_cache_dir is not None:
            argv += ["--result-cache-dir", config.result_cache_dir]
        return argv

    def _child_env(self) -> Dict[str, str]:
        """The shard environment: the package must stay importable."""
        env = dict(os.environ)
        package_root = str(pathlib.Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        if existing:
            if package_root not in existing.split(os.pathsep):
                env["PYTHONPATH"] = package_root + os.pathsep + existing
        else:
            env["PYTHONPATH"] = package_root
        return env

    def _spawn(self, index: int) -> None:
        # Each shard leads its own session (and therefore process group):
        # its forked descendants — pool workers, simulation children —
        # inherit the group, so when the shard dies the supervisor can
        # SIGKILL the whole group and reap stragglers that never got a
        # chance to clean up (e.g. a sim child SIGSTOPped by a stall fault
        # before it could arm its parent-death signal; see
        # repro.service.childproc).  A stopped process still holds any
        # inherited SO_REUSEPORT listening socket, silently eating a share
        # of new connections — group SIGKILL is the only signal that
        # removes it regardless of state.  Spawn only on the loop thread:
        # a shard arms PR_SET_PDEATHSIG, which fires when the *thread*
        # that forked it exits, so a spawn from a short-lived thread would
        # kill the shard with that thread.
        proc = subprocess.Popen(
            self._child_argv(index),
            stdout=subprocess.PIPE,
            text=True,
            env=self._child_env(),
            start_new_session=True,
        )
        shard = _Shard(index, proc)
        self._shards[index] = shard
        # Two independent watcher threads per shard.  The announce reader
        # blocks on the stdout pipe, which only reaches EOF once *every*
        # inherited write end is gone — the shard and all its forked
        # descendants.  A SIGSTOPped pre-hardening sim child never closes
        # its copy, so exit detection must not sit behind that EOF: the
        # exit watcher waits on the process directly and its group
        # SIGKILL is what finally unblocks the reader.
        threading.Thread(
            target=self._watch_announce, args=(shard,), daemon=True
        ).start()
        threading.Thread(
            target=self._watch_exit, args=(shard,), daemon=True
        ).start()

    @staticmethod
    def _reap_shard_group(pid: int) -> None:
        """SIGKILL every surviving member of a dead shard's process group.

        The group id equals the shard's pid (``start_new_session=True``),
        and the group outlives the leader while any member — a forked pool
        worker or simulation child — survives, so this works even after
        the shard itself was reaped.  No-op when the group is already
        empty or the platform has no process groups.
        """
        killpg = getattr(os, "killpg", None)
        if killpg is None:  # pragma: no cover - POSIX-only service
            return
        try:
            killpg(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def _watch_announce(self, shard: _Shard) -> None:
        """Reader thread: relay the shard's ``listening`` announce line.

        Events carry the incarnation's pid so a line straggling out of a
        dead shard's pipe can never be attributed to its replacement.
        """
        stdout = shard.proc.stdout
        assert stdout is not None
        for line in stdout:
            line = line.strip()
            if not line:
                continue
            try:
                info = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(info, dict) and info.get("event") == "listening":
                info = dict(info)
                info["pid"] = shard.proc.pid
                self._post(("ready", shard.index, info))

    def _watch_exit(self, shard: _Shard) -> None:
        """Exit watcher: wait for the shard, reap its group, announce.

        Deliberately independent of the stdout reader: waiting for pipe
        EOF before ``wait()`` would deadlock on exactly the orphan this
        path exists to reap — a descendant that still holds the pipe's
        write end (and the shared listening socket) because it was
        SIGSTOPped before it could harden itself.  The group SIGKILL
        below is what closes those straggler fds and lets the reader
        thread finish.  Reaping happens *before* the exit event so a
        replacement shard never races a zombie group member still bound
        to the shared port.
        """
        shard.proc.wait()
        self._reap_shard_group(shard.proc.pid)
        self._post(
            (
                "exit",
                shard.index,
                {"returncode": shard.proc.returncode, "pid": shard.proc.pid},
            )
        )

    def _post(self, event: _Event) -> None:
        loop, events = self._loop, self._events
        if loop is not None and events is not None and not loop.is_closed():
            loop.call_soon_threadsafe(events.put_nowait, event)

    # ------------------------------------------------------------------ #
    # Aggregation admin endpoint                                         #
    # ------------------------------------------------------------------ #

    async def _fetch_json(
        self, port: int, path: str, body: Optional[bytes] = None
    ) -> Optional[Tuple[int, Payload]]:
        """One request to a shard's admin listener (None on failure).

        A ``GET`` by default; ``body`` makes it a JSON ``POST``.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", port), _FANOUT_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError):
            return None
        try:
            method = "GET" if body is None else "POST"
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    f"Content-Length: {len(body or b'')}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
                + (body or b"")
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), _FANOUT_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.TimeoutError):  # pragma: no cover
                pass
        head, _, body = raw.partition(b"\r\n\r\n")
        parts = head.split(b" ", 2)
        if len(parts) < 2:
            return None
        try:
            status = int(parts[1])
            payload = json.loads(body)
        except (ValueError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        return status, payload

    def _reachable_shards(self) -> List[_Shard]:
        return [
            shard
            for shard in self._shards.values()
            if shard.alive and shard.admin_port is not None
        ]

    async def _shard_payloads(self, path: str) -> Tuple[int, List[Payload]]:
        """Fan ``path`` out to every reachable shard.

        Returns ``(failures, payloads)`` where failures counts shards that
        were unreachable or answered non-200.
        """
        shards = self._reachable_shards()
        results = await asyncio.gather(
            *(
                self._fetch_json(shard.admin_port or 0, path)
                for shard in shards
            )
        )
        payloads: List[Payload] = []
        failures = self.shards - len(shards)
        for result in results:
            if result is None or result[0] != 200:
                failures += 1
            else:
                payloads.append(result[1])
        return failures, payloads

    def _health(self, failures: int, statuses: List[object]) -> str:
        if self._draining:
            return "draining"
        if (
            self._degraded
            or failures > 0
            or any(status != "ok" for status in statuses)
        ):
            return "degraded"
        return "ok"

    def _shards_section(self) -> Payload:
        per_shard: List[Payload] = []
        for index in sorted(self._shards):
            shard = self._shards[index]
            per_shard.append(
                {
                    "shard": index,
                    "pid": shard.proc.pid,
                    "port": shard.port,
                    "admin_port": shard.admin_port,
                    "alive": shard.alive,
                }
            )
        return {
            "count": self.shards,
            "alive": self.alive_shards,
            "restarts": self._budget.used,
            "restarts_left": self._budget.left,
            "degraded": self._degraded,
            "per_shard": per_shard,
        }

    async def _admin_response(self, path: str) -> Tuple[int, Payload]:
        if path == "/healthz":
            failures, payloads = await self._shard_payloads("/healthz")
            statuses = [payload.get("status") for payload in payloads]
            return 200, {
                "status": self._health(failures, statuses),
                "shards": {
                    "count": self.shards,
                    "alive": self.alive_shards,
                    "restarts": self._budget.used,
                    "degraded": self._degraded,
                },
            }
        if path == "/metrics":
            failures, payloads = await self._shard_payloads("/metrics")
            statuses = [payload.get("health") for payload in payloads]
            merged = aggregate_snapshots(payloads)
            merged["health"] = self._health(failures, statuses)
            merged["shards"] = self._shards_section()
            return 200, merged
        return 404, error_payload(
            404,
            "not found",
            f"the supervisor only serves /healthz and /metrics, not {path}",
        )

    async def _chaos(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Payload]:
        """``POST /chaos/faults`` on the fleet (403 without ``chaos_admin``).

        ``kill_shard`` SIGKILLs one live shard per count and lets the
        replacement path take over; every other event is forwarded to each
        live shard's admin listener, which arms its own injector.
        """
        try:
            fault = parse_fault_request(self.config.chaos_admin, method, path, body)
        except ServiceError as exc:
            return exc.status, error_payload(exc.status, exc.reason, str(exc))
        if fault.action == "kill_shard":
            return self._kill_shards(fault)
        return await self._arm_shards(fault)

    def _kill_shards(self, fault: FaultRequest) -> Tuple[int, Payload]:
        victims = [s for s in self._shards.values() if s.alive][::-1]
        if not victims:
            return 409, error_payload(409, "conflict", "no live shard to kill")
        killed: List[int] = []
        for victim in victims[: fault.count]:
            logger.warning(
                "%s",
                json.dumps(
                    {"event": "chaos_kill_shard", "shard": victim.index},
                    sort_keys=True,
                ),
            )
            victim.proc.kill()
            killed.append(victim.index)
        return 200, {"fault": asdict(fault), "shards": killed}

    async def _arm_shards(self, fault: FaultRequest) -> Tuple[int, Payload]:
        shards = self._reachable_shards()
        body = json.dumps(asdict(fault)).encode("utf-8")
        results = await asyncio.gather(
            *(
                self._fetch_json(shard.admin_port or 0, CHAOS_FAULTS_PATH, body)
                for shard in shards
            )
        )
        armed = [
            shard.index
            for shard, result in zip(shards, results)
            if result is not None and result[0] == 200
        ]
        # A shard that died since the fan-out started is no longer live.
        missed = [s.index for s in shards if s.index not in armed and s.alive]
        if missed or not armed:
            return 502, error_payload(
                502,
                "bad gateway",
                f"{fault.action} armed on shard(s) {armed}; "
                f"failed on live shard(s) {missed}",
            )
        return 200, {"fault": asdict(fault), "shards": armed}

    async def _handle_admin(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ServiceError as exc:
                    writer.write(
                        render_response(
                            exc.status,
                            encode_payload(
                                error_payload(exc.status, exc.reason, str(exc))
                            ),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                head, body = request
                if head.path.startswith(CHAOS_PREFIX):
                    status, payload = await self._chaos(
                        head.method, head.path, body
                    )
                elif head.method != "GET":
                    status, payload = 405, error_payload(
                        405,
                        "method not allowed",
                        "the supervisor admin endpoint is GET-only "
                        f"(apart from POST {CHAOS_FAULTS_PATH})",
                    )
                else:
                    status, payload = await self._admin_response(head.path)
                keep_alive = head.keep_alive and not self._draining
                writer.write(
                    render_response(
                        status, encode_payload(payload), keep_alive=keep_alive
                    )
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, TimeoutError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------ #
    # Run loop                                                           #
    # ------------------------------------------------------------------ #

    async def run(
        self,
        stop: Optional[asyncio.Event] = None,
        install_signal_handlers: bool = True,
        announce: bool = True,
        on_ready: Optional[Callable[["ShardSupervisor"], None]] = None,
    ) -> None:
        """Supervise the fleet until ``stop`` (or SIGTERM/SIGINT).

        Mirrors :func:`repro.service.server.serve`: binds, spawns every
        shard, waits for all of them to announce, starts the aggregation
        admin listener, prints its own ``{"event": "listening"}`` line
        (with ``shards`` and ``admin_port``), then replaces crashed shards
        from the restart budget until stopped — finally SIGTERMing the
        shards and waiting out their graceful drains.
        """
        self._loop = asyncio.get_running_loop()
        self._events = asyncio.Queue()
        stop_event = stop if stop is not None else asyncio.Event()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, stop_event.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    break
        # One-time startup work before any traffic exists: binding the
        # listeners and forking the shard fleet happen exactly once, with
        # nothing else scheduled on the loop yet.
        self._bind()  # lint: ignore[RP201]
        try:
            for index in range(self.shards):
                self._spawn(index)  # lint: ignore[RP201]
            await self._event_loop(stop_event, announce, on_ready)
        finally:
            await self._shutdown()

    async def _event_loop(
        self,
        stop_event: asyncio.Event,
        announce: bool,
        on_ready: Optional[Callable[["ShardSupervisor"], None]],
    ) -> None:
        events = self._events
        assert events is not None
        ready: Set[int] = set()
        started = False
        stop_task = asyncio.ensure_future(stop_event.wait())
        try:
            while True:
                event_task = asyncio.ensure_future(events.get())
                done, _ = await asyncio.wait(
                    {stop_task, event_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if stop_task in done:
                    event_task.cancel()
                    return
                kind, index, info = event_task.result()
                shard = self._shards.get(index)
                pid = info.get("pid")
                if (
                    shard is not None
                    and isinstance(pid, int)
                    and pid != shard.proc.pid
                ):
                    continue  # stale event from a replaced incarnation
                if kind == "ready":
                    if shard is not None:
                        shard.port = int(str(info.get("port", self._port)))
                        admin = info.get("admin_port")
                        shard.admin_port = (
                            int(str(admin)) if admin is not None else None
                        )
                    ready.add(index)
                    if not started and len(ready) == self.shards:
                        started = True
                        await self._on_fleet_ready(announce, on_ready)
                elif kind == "exit":
                    ready.discard(index)
                    # Shard replacement Popens a new process: rare (restart
                    # budget), and the supervisor loop serves only admin
                    # traffic, so the brief fork is an accepted stall.
                    if not self._on_shard_exit(index, info):  # lint: ignore[RP201]
                        return
        finally:
            stop_task.cancel()

    async def _on_fleet_ready(
        self,
        announce: bool,
        on_ready: Optional[Callable[["ShardSupervisor"], None]],
    ) -> None:
        self._admin_server = await asyncio.start_server(
            self._handle_admin,
            host="127.0.0.1",
            port=self.config.admin_port or 0,
        )
        if announce:
            print(
                json.dumps(
                    {
                        "event": "listening",
                        "host": self.config.host,
                        "port": self._port,
                        "shards": self.shards,
                        "admin_port": self.admin_port,
                    }
                ),
                flush=True,
            )
        logger.info(
            "%s",
            json.dumps(
                {
                    "event": "supervising",
                    "shards": self.shards,
                    "port": self._port,
                },
                sort_keys=True,
            ),
        )
        if on_ready is not None:
            on_ready(self)

    def _on_shard_exit(self, index: int, info: Dict[str, object]) -> bool:
        """Replace a dead shard; False ends the run loop (fleet is gone)."""
        if self._draining:
            return True
        logger.warning(
            "%s",
            json.dumps(
                {
                    "event": "shard_exit",
                    "shard": index,
                    "returncode": info.get("returncode"),
                },
                sort_keys=True,
            ),
        )
        if self._budget.spend():
            self._spawn(index)
            logger.warning(
                "%s",
                json.dumps(
                    {
                        "event": "shard_restart",
                        "shard": index,
                        "restarts_used": self._budget.used,
                        "restarts_left": self._budget.left,
                    },
                    sort_keys=True,
                ),
            )
            return True
        self._degraded = True
        if self.alive_shards == 0:
            logger.error(
                "%s",
                json.dumps({"event": "all_shards_dead"}, sort_keys=True),
            )
            return False
        logger.warning(
            "%s",
            json.dumps(
                {"event": "shard_budget_exhausted", "alive": self.alive_shards},
                sort_keys=True,
            ),
        )
        return True

    async def _shutdown(self) -> None:
        self._draining = True
        if self._admin_server is not None:
            self._admin_server.close()
            await self._admin_server.wait_closed()
            # Single-shot teardown: _shutdown runs once after the signal
            # handler flips _draining, so no concurrent task re-reads it.
            self._admin_server = None  # lint: ignore[RP206]
        for shard in self._shards.values():
            if shard.alive:
                shard.proc.terminate()
        try:
            await asyncio.wait_for(
                self._wait_all_exited(),
                timeout=self.config.drain_timeout_s + 2.0,
            )
        except asyncio.TimeoutError:
            for shard in self._shards.values():
                if shard.alive:  # pragma: no cover - drain overrun
                    shard.proc.kill()
            await self._wait_all_exited()
        for shard in self._shards.values():
            self._reap_shard_group(shard.proc.pid)
        self._close_sockets()
        logger.info(
            "%s", json.dumps({"event": "supervisor_stopped"}, sort_keys=True)
        )

    async def _wait_all_exited(self) -> None:
        events = self._events
        assert events is not None
        while any(shard.alive for shard in self._shards.values()):
            await events.get()
