"""Server configuration (one frozen dataclass, CLI-mappable 1:1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)

__all__ = ["ServiceConfig", "DEFAULT_PORT"]

#: Default TCP port (``--port 0`` binds an ephemeral port and announces it).
DEFAULT_PORT = 8123


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the planning service needs to boot.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` picks an ephemeral port; the server
        announces the actual one on stdout as a ``{"event": "listening"}``
        JSON line.
    workers:
        Process-pool size for heavy sweep requests.  ``0`` runs sweeps
        inline on the event loop (useful for tests and tiny deployments);
        results are bit-identical either way.
    coalesce_ms:
        Request-coalescing window: concurrent single-point requests that
        share a batch group and arrive within this many milliseconds of the
        first are merged into one batch-kernel call.  The default ``0``
        still merges requests landing in the same event-loop tick, and
        waits no longer: a one-point overlay or underlay batch costs
        ~0.1-0.4 ms, so a wider window mostly adds its own length to every
        scalar request (``docs/performance.md`` section 3 has the curve).
    queue_limit:
        Maximum in-flight sweep tasks (running + queued); excess requests
        are rejected with HTTP 429.
    seed:
        Base seed for the per-task ``SeedSequence.spawn`` stream handed to
        stochastic work (e.g. ``random_indoor`` environments requested
        without an explicit seed).  ``None`` draws fresh OS entropy.
    drain_timeout_s:
        Graceful-shutdown budget: how long to wait for in-flight requests
        after SIGTERM before force-closing connections.
    request_log:
        Emit one structured (JSON) log line per request.
    request_timeout_ms:
        Per-request deadline.  A request whose handler (including pooled
        sweep work) exceeds it is cancelled and answered 504 with a
        structured error body.  ``None`` disables the deadline.
    max_pool_restarts:
        How many times the supervised worker pool may replace a broken
        ``ProcessPoolExecutor`` (a crashed/killed worker) before giving up
        and degrading to inline execution.
    retry_after_s:
        Backoff hint sent as the ``Retry-After`` header on 429 responses
        (rounded up to whole seconds on the wire).
    reuse_port:
        Bind the listening socket with ``SO_REUSEPORT`` so several server
        processes (shards) can share one port, with the kernel balancing
        accepted connections across them.  The shard supervisor sets it
        on every shard.
    admin_port:
        When not ``None``, additionally serve ``/healthz`` and
        ``/metrics`` (and everything else) on a private loopback listener
        at this port (``0`` = ephemeral, announced as ``admin_port``).
        The shard supervisor uses it to reach each shard individually
        behind the kernel's connection balancing.
    shard_index:
        This server's slot in a shard fleet (``None`` outside one);
        echoed in the announce line and per-request logs so supervisors
        can attribute output.
    result_cache:
        Serve repeated POST requests from the persistent request-hash
        result cache (see :mod:`repro.service.rescache`).  Off by default
        for library users and tests; the CLI daemon turns it on.
        ``REPRO_NO_CACHE=1`` force-disables it regardless.
    result_cache_dir:
        Override the result-cache directory (default: the shared
        ``repro-comimo`` cache root).
    max_sims:
        Concurrently running ``/v1/simulate`` requests, streamed or
        buffered (each runs in its own child process); excess requests
        are rejected with HTTP 429.
    sim_stall_timeout_ms:
        Per-row stall deadline for ``/v1/simulate``: when the child
        process produces no row for this long, it is killed and the run
        ends 504 — as a terminal ``{"row": "error"}`` line when streamed,
        as a buffered 504 otherwise — so a stalled simulation never turns
        into an indefinite client hang.  Independent of
        ``request_timeout_ms`` (which also bounds a buffered run, and a
        stream until it commits); ``None`` disables the deadline.
    chaos_admin:
        Serve ``POST /chaos/faults``, which arms one fault event at
        runtime (see :mod:`repro.service.faults`), so a load generator can
        fire each fault at a scheduled request index.  A single server
        arms its own injector; the shard supervisor serves the route on
        its admin listener, kills shards for ``kill_shard`` and forwards
        every other event to each live shard.  Off by default: every
        ``/chaos/`` request is answered 403 unless a chaos run explicitly
        opts in.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 2
    coalesce_ms: float = 0.0
    queue_limit: int = 32
    seed: Optional[int] = None
    drain_timeout_s: float = 5.0
    request_log: bool = True
    request_timeout_ms: Optional[float] = None
    max_pool_restarts: int = 3
    retry_after_s: float = 1.0
    reuse_port: bool = False
    admin_port: Optional[int] = None
    shard_index: Optional[int] = None
    result_cache: bool = False
    result_cache_dir: Optional[str] = None
    max_sims: int = 2
    sim_stall_timeout_ms: Optional[float] = 10000.0
    chaos_admin: bool = False

    def __post_init__(self) -> None:
        check_in_range(self.port, "port", 0, 65535)
        check_non_negative_int(self.workers, "workers")
        check_non_negative(self.coalesce_ms, "coalesce_ms")
        check_positive_int(self.queue_limit, "queue_limit")
        if self.seed is not None:
            check_non_negative_int(self.seed, "seed")
        check_positive(self.drain_timeout_s, "drain_timeout_s")
        if self.request_timeout_ms is not None:
            check_positive(self.request_timeout_ms, "request_timeout_ms")
        check_non_negative_int(self.max_pool_restarts, "max_pool_restarts")
        check_positive(self.retry_after_s, "retry_after_s")
        if self.admin_port is not None:
            check_in_range(self.admin_port, "admin_port", 0, 65535)
        if self.shard_index is not None:
            check_non_negative_int(self.shard_index, "shard_index")
        check_positive_int(self.max_sims, "max_sims")
        if self.sim_stall_timeout_ms is not None:
            check_positive(self.sim_stall_timeout_ms, "sim_stall_timeout_ms")

    @property
    def coalesce_window_s(self) -> float:
        """The coalescing window in seconds (what the event loop uses)."""
        return self.coalesce_ms / 1000.0

    @property
    def request_timeout_s(self) -> Optional[float]:
        """The per-request deadline in seconds (``None`` when disabled)."""
        if self.request_timeout_ms is None:
            return None
        return self.request_timeout_ms / 1000.0

    @property
    def sim_stall_timeout_s(self) -> Optional[float]:
        """The simulate stall deadline in seconds (``None`` when disabled)."""
        if self.sim_stall_timeout_ms is None:
            return None
        return self.sim_stall_timeout_ms / 1000.0
