"""Command-line entry point: ``repro-service`` / ``python -m repro.service``.

Usage::

    repro-service [--host H] [--port P] [--workers N|auto] [--shards N|auto]
                  [--coalesce-ms MS] [--queue-limit N] [--max-coalesce N]
                  [--seed N] [--table-convention paper|diversity_only]
                  [--request-timeout-ms MS] [--max-pool-restarts N]
                  [--max-shard-restarts N] [--retry-after-s S]
                  [--drain-timeout-s S] [--admin-port P]
                  [--max-sims N] [--max-sim-nodes N]
                  [--stream-segment-points N] [--sim-stall-timeout-ms MS]
                  [--chaos-admin]
                  [--no-result-cache] [--result-cache-dir DIR]
                  [--no-request-log] [--quiet]

The server announces its bound address as a ``{"event": "listening"}`` JSON
line on stdout (``--port 0`` binds an ephemeral port), logs one structured
JSON line per request to stderr, and drains gracefully on SIGTERM/SIGINT
(exit code 0).

``--shards 2`` (or more, or ``auto`` = one per available CPU) runs the
:class:`repro.service.shard.ShardSupervisor` instead of a single server:
N server processes share the port via ``SO_REUSEPORT`` (or an inherited
listener where unsupported), crashed shards are replaced from a restart
budget, and the supervisor's announced ``admin_port`` serves aggregated
``/healthz`` and ``/metrics``.  ``auto`` counts *available* CPUs (cgroup /
affinity aware) through :func:`repro.utils.sysinfo.available_cpu_count` —
never raw ``os.cpu_count()``.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys
from typing import Callable, List, Optional

from repro.energy.ebar import CONVENTIONS
from repro.service.config import DEFAULT_PORT, ServiceConfig
from repro.service.server import serve
from repro.service.shard import ShardSupervisor
from repro.utils.sysinfo import default_shard_count, default_worker_count
from repro.utils.validation import check_positive_int

__all__ = ["main", "build_config", "resolve_count"]


def resolve_count(value: str, name: str, auto: Callable[[], int]) -> int:
    """Parse an ``N``-or-``auto`` CLI count (``auto`` asks ``sysinfo``)."""
    if value.strip().lower() == "auto":
        return auto()
    try:
        count = int(value)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer or 'auto', got {value!r}"
        ) from None
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Planning service for the cooperative MIMO cognitive-radio "
        "reproduction: e_bar_b lookups, overlay feasibility, underlay energy "
        "and interweave beam patterns over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="TCP port; 0 binds an ephemeral port and announces it on stdout",
    )
    parser.add_argument(
        "--workers",
        default="2",
        help="worker processes for sweep requests; 0 runs sweeps inline; "
        "'auto' sizes to the available CPUs minus one",
    )
    parser.add_argument(
        "--shards",
        default="1",
        help="server processes sharing the port; >1 runs the shard "
        "supervisor; 'auto' sizes to the available CPUs",
    )
    parser.add_argument(
        "--max-shard-restarts",
        type=int,
        default=3,
        help="crashed-shard replacements before the fleet degrades",
    )
    parser.add_argument(
        "--coalesce-ms",
        type=float,
        default=0.0,
        help="request-coalescing window in milliseconds (0 merges only "
        "requests that arrive in the same event-loop tick)",
    )
    parser.add_argument(
        "--max-coalesce",
        type=int,
        default=64,
        help="maximum merged requests per coalesced batch",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        help="maximum in-flight sweep tasks before requests get 429",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed for per-task SeedSequence.spawn streams",
    )
    parser.add_argument(
        "--table-convention",
        choices=list(CONVENTIONS),
        default="paper",
        help="e_bar_b convention of the preloaded lookup table",
    )
    parser.add_argument(
        "--max-sweep-points",
        type=int,
        default=4096,
        help="per-request cap on sweep axis length",
    )
    parser.add_argument(
        "--request-timeout-ms",
        type=float,
        default=None,
        help="per-request deadline; exceeding it answers 504 (default: none)",
    )
    parser.add_argument(
        "--max-pool-restarts",
        type=int,
        default=3,
        help="broken worker-pool restarts before degrading to inline sweeps",
    )
    parser.add_argument(
        "--retry-after-s",
        type=float,
        default=1.0,
        help="Retry-After hint sent on 429 backpressure responses",
    )
    parser.add_argument(
        "--drain-timeout-s",
        type=float,
        default=5.0,
        help="graceful-shutdown budget for in-flight requests",
    )
    parser.add_argument(
        "--admin-port",
        type=int,
        default=None,
        help="also serve /healthz and /metrics on this private loopback "
        "port (0 = ephemeral, announced as admin_port)",
    )
    parser.add_argument(
        "--reuse-port",
        action="store_true",
        help="bind with SO_REUSEPORT so sibling processes can share the port",
    )
    parser.add_argument(
        "--listen-fd",
        type=int,
        default=None,
        help="adopt an inherited listening socket on this file descriptor "
        "(shard-supervisor fallback; overrides --host/--port binding)",
    )
    parser.add_argument(
        "--shard-index",
        type=int,
        default=None,
        help="this server's slot in a shard fleet (set by the supervisor)",
    )
    parser.add_argument(
        "--max-sims",
        type=int,
        default=2,
        help="concurrently streaming /v1/simulate runs before requests get 429",
    )
    parser.add_argument(
        "--max-sim-nodes",
        type=int,
        default=5000,
        help="per-request cap on a scenario's starting node count",
    )
    parser.add_argument(
        "--stream-segment-points",
        type=int,
        default=512,
        help="axis points per pool task when streaming sweep rows as NDJSON",
    )
    parser.add_argument(
        "--sim-stall-timeout-ms",
        type=float,
        default=10000.0,
        help="per-row stall deadline for streamed /v1/simulate; a child "
        "producing no row for this long is killed and the stream ends "
        "with a terminal error row (0 disables)",
    )
    parser.add_argument(
        "--chaos-admin",
        action="store_true",
        help="serve POST /chaos/faults, which arms one fault event at "
        "runtime (load-generator fault plans; off by default).  A single "
        "server arms itself; the shard supervisor serves it on its admin "
        "listener, kills shards for kill_shard and forwards every other "
        "event to each live shard",
    )
    parser.add_argument(
        "--result-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve repeated POST requests from the persistent request-hash "
        "result cache (REPRO_NO_CACHE=1 force-disables it)",
    )
    parser.add_argument(
        "--result-cache-dir",
        default=None,
        help="override the result-cache directory",
    )
    parser.add_argument(
        "--no-request-log",
        action="store_true",
        help="disable per-request structured log lines",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="log warnings and errors only"
    )
    return parser


def build_config(args: argparse.Namespace) -> ServiceConfig:
    """Map parsed CLI arguments onto a :class:`ServiceConfig`."""
    return ServiceConfig(
        host=args.host,
        port=args.port,
        workers=resolve_count(args.workers, "workers", default_worker_count),
        coalesce_ms=args.coalesce_ms,
        max_coalesce=args.max_coalesce,
        queue_limit=args.queue_limit,
        seed=args.seed,
        table_convention=args.table_convention,
        max_sweep_points=args.max_sweep_points,
        drain_timeout_s=args.drain_timeout_s,
        request_log=not args.no_request_log,
        request_timeout_ms=args.request_timeout_ms,
        max_pool_restarts=args.max_pool_restarts,
        retry_after_s=args.retry_after_s,
        reuse_port=args.reuse_port,
        listen_fd=args.listen_fd,
        admin_port=args.admin_port,
        shard_index=args.shard_index,
        result_cache=args.result_cache,
        result_cache_dir=args.result_cache_dir,
        max_sims=args.max_sims,
        max_sim_nodes=args.max_sim_nodes,
        stream_segment_points=args.stream_segment_points,
        sim_stall_timeout_ms=(
            None if args.sim_stall_timeout_ms == 0 else args.sim_stall_timeout_ms
        ),
        chaos_admin=args.chaos_admin,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        shards = check_positive_int(
            resolve_count(args.shards, "shards", default_shard_count), "shards"
        )
    except ValueError as exc:
        print(f"repro-service: {exc}", file=sys.stderr)
        return 2
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
    )
    try:
        if shards > 1:
            supervisor = ShardSupervisor(
                config, shards, max_shard_restarts=args.max_shard_restarts
            )
            asyncio.run(supervisor.run())
        else:
            asyncio.run(serve(config))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
