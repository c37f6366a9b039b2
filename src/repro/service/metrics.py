"""In-process service metrics: counters, gauges and latency histograms.

Everything here is mutated from the event-loop thread only (handlers,
coalescer flushes and pool bookkeeping all run there), so plain ints are
safe without locks.  ``snapshot()`` renders the whole state as one
JSON-serializable dict — the body of ``GET /metrics``.

Durations are *passed in* (measured by callers with ``loop.time()``); the
module itself never reads a clock, keeping the library deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.validation import check_non_negative

__all__ = ["Metrics", "LatencyHistogram", "DEFAULT_LATENCY_BOUNDS_MS"]

#: Log-ish spaced bucket upper bounds [ms]; one overflow bucket is implied.
DEFAULT_LATENCY_BOUNDS_MS: Tuple[float, ...] = (
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
    5000.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated quantiles."""

    def __init__(self, bounds_ms: Optional[Sequence[float]] = None) -> None:
        if bounds_ms is None:
            bounds_ms = DEFAULT_LATENCY_BOUNDS_MS
        bounds = tuple(sorted(float(b) for b in bounds_ms))
        if not bounds or any(b <= 0.0 for b in bounds):
            raise ValueError("bounds_ms must be non-empty and strictly positive")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # one overflow bucket
        self._count = 0
        self._sum_ms = 0.0
        self._max_ms = 0.0

    def observe(self, latency_ms: float) -> None:
        """Record one observation (milliseconds)."""
        latency_ms = check_non_negative(latency_ms, "latency_ms")
        index = len(self._bounds)
        for j, bound in enumerate(self._bounds):
            if latency_ms <= bound:
                index = j
                break
        self._counts[index] += 1
        self._count += 1
        self._sum_ms += latency_ms
        if latency_ms > self._max_ms:
            self._max_ms = latency_ms

    @property
    def count(self) -> int:
        return self._count

    def quantile(self, q: float) -> float:
        """Histogram-interpolated quantile estimate in ms (0 when empty).

        Linear interpolation inside the target bucket, capped at the
        largest observed value (which the overflow bucket reports).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for j, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if j >= len(self._bounds):
                    return self._max_ms
                lower = self._bounds[j - 1] if j > 0 else 0.0
                upper = self._bounds[j]
                within = max(rank - cumulative, 0.0) / bucket_count
                return min(lower + (upper - lower) * within, self._max_ms)
            cumulative += bucket_count
        return self._max_ms

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s observations into this histogram (same bounds).

        The shard supervisor uses this to aggregate per-shard ``/metrics``
        snapshots into one fleet-wide latency view; quantiles are then
        re-interpolated over the merged buckets.
        """
        if other._bounds != self._bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for j, count in enumerate(other._counts):
            self._counts[j] += count
        self._count += other._count
        self._sum_ms += other._sum_ms
        if other._max_ms > self._max_ms:
            self._max_ms = other._max_ms

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "LatencyHistogram":
        """Rebuild a histogram from its :meth:`snapshot` dict.

        Inverse of :meth:`snapshot` up to the derived quantile fields; used
        to merge ``/metrics`` payloads fetched from remote shards.
        """
        buckets = snapshot.get("buckets")
        if not isinstance(buckets, dict):
            raise ValueError("snapshot has no 'buckets' dict")
        pairs: List[Tuple[float, int]] = []
        for key, value in buckets.items():
            if key == "overflow":
                continue
            if not key.startswith("le_"):
                raise ValueError(f"unexpected bucket key {key!r}")
            pairs.append((float(key[3:]), int(value)))
        # Key order is not bound order: /metrics is served with sort_keys,
        # which puts "le_10" before "le_2".
        pairs.sort()
        histogram = cls([bound for bound, _ in pairs])
        histogram._counts = [count for _, count in pairs] + [int(buckets.get("overflow", 0))]
        histogram._count = int(snapshot.get("count", 0))
        histogram._sum_ms = float(snapshot.get("sum_ms", 0.0))
        histogram._max_ms = float(snapshot.get("max_ms", 0.0))
        return histogram

    def snapshot(self) -> Dict[str, object]:
        """Counts, sum/max and interpolated p50/p95/p99 plus the buckets."""
        buckets = {f"le_{bound:g}": count for bound, count in zip(self._bounds, self._counts)}
        buckets["overflow"] = self._counts[-1]
        return {
            "count": self._count,
            "sum_ms": self._sum_ms,
            "max_ms": self._max_ms,
            "p50_ms": self.quantile(0.50),
            "p95_ms": self.quantile(0.95),
            "p99_ms": self.quantile(0.99),
            "buckets": buckets,
        }


class Metrics:
    """All service counters behind ``GET /metrics``."""

    def __init__(self, latency_bounds_ms: Optional[Sequence[float]] = None) -> None:
        self._requests_total = 0
        self._by_endpoint: Dict[str, int] = {}
        self._by_status: Dict[str, int] = {}
        self._latency = LatencyHistogram(latency_bounds_ms)
        # request coalescing
        self._batches = 0
        self._batched_requests = 0
        self._max_batch = 0
        self._batch_sizes: List[int] = []
        # ebar result cache
        self._cache_hits = 0
        self._cache_misses = 0
        # persistent request-hash result cache
        self._result_cache_hits = 0
        self._result_cache_misses = 0
        # sweep pool
        self._pool_depth = 0
        self._pool_peak_depth = 0
        self._pool_completed = 0
        self._pool_rejected = 0
        # resilience: pool supervision, deadlines, degraded fallback
        self._pool_restarts = 0
        self._pool_task_retries = 0
        self._degraded_requests = 0
        self._deadline_timeouts = 0
        # NDJSON streaming
        self._streams_opened = 0
        self._stream_rows = 0

    # ------------------------------------------------------------------ #
    # Request lifecycle                                                  #
    # ------------------------------------------------------------------ #

    def record_request(self, endpoint: str) -> None:
        """Count one arriving request against its endpoint."""
        self._requests_total += 1
        self._by_endpoint[endpoint] = self._by_endpoint.get(endpoint, 0) + 1

    def record_response(self, status: int, latency_ms: float) -> None:
        """Count one finished response: status class and latency."""
        key = str(int(status))
        self._by_status[key] = self._by_status.get(key, 0) + 1
        self._latency.observe(latency_ms)

    # ------------------------------------------------------------------ #
    # Coalescer / cache / pool hooks                                     #
    # ------------------------------------------------------------------ #

    def observe_batch(self, size: int) -> None:
        """One coalesced flush of ``size`` merged requests."""
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size}")
        self._batches += 1
        self._batched_requests += size
        self._batch_sizes.append(size)
        if size > self._max_batch:
            self._max_batch = size

    def cache_hit(self) -> None:
        """Count one ē_b result-cache hit."""
        self._cache_hits += 1

    def cache_miss(self) -> None:
        """Count one ē_b result-cache miss."""
        self._cache_misses += 1

    def result_cache_hit(self) -> None:
        """Count one persistent result-cache hit (response served from disk)."""
        self._result_cache_hits += 1

    def result_cache_miss(self) -> None:
        """Count one persistent result-cache miss (response computed fresh)."""
        self._result_cache_misses += 1

    def pool_enter(self) -> None:
        """A sweep entered the worker pool (depth and peak tracking)."""
        self._pool_depth += 1
        if self._pool_depth > self._pool_peak_depth:
            self._pool_peak_depth = self._pool_depth

    def pool_exit(self) -> None:
        """A pooled sweep finished (success or failure)."""
        if self._pool_depth > 0:
            self._pool_depth -= 1
        self._pool_completed += 1

    def pool_reject(self) -> None:
        """A sweep was rejected because the queue was full (429)."""
        self._pool_rejected += 1

    def pool_restart(self) -> None:
        """The supervised pool replaced a broken ProcessPoolExecutor."""
        self._pool_restarts += 1

    def pool_task_retry(self) -> None:
        """A victim task was re-dispatched after a pool restart."""
        self._pool_task_retries += 1

    def degraded_request(self) -> None:
        """A pooled task ran inline because worker execution was unavailable."""
        self._degraded_requests += 1

    def deadline_timeout(self) -> None:
        """A request exceeded the per-request deadline and was answered 504."""
        self._deadline_timeouts += 1

    def stream_opened(self) -> None:
        """An NDJSON streaming response committed (headers sent)."""
        self._streams_opened += 1

    def stream_row(self) -> None:
        """One NDJSON row was handed to the transport layer."""
        self._stream_rows += 1

    @property
    def pool_depth(self) -> int:
        """Current sweep-pool queue depth (running + queued tasks)."""
        return self._pool_depth

    @property
    def pool_restarts(self) -> int:
        """Total broken-pool restarts since boot."""
        return self._pool_restarts

    # ------------------------------------------------------------------ #

    def mean_batch_size(self) -> float:
        """Mean coalesced-batch size (0 before the first flush)."""
        if self._batches == 0:
            return 0.0
        return self._batched_requests / self._batches

    def snapshot(self) -> Dict[str, object]:
        """The ``GET /metrics`` body: every counter, JSON-serializable."""
        return {
            "requests_total": self._requests_total,
            "requests_by_endpoint": dict(self._by_endpoint),
            "responses_by_status": dict(self._by_status),
            "latency_ms": self._latency.snapshot(),
            "coalesce": {
                "batches": self._batches,
                "requests": self._batched_requests,
                "mean_batch_size": self.mean_batch_size(),
                "max_batch_size": self._max_batch,
            },
            "ebar_cache": {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
            },
            "result_cache": {
                "hits": self._result_cache_hits,
                "misses": self._result_cache_misses,
            },
            "pool": {
                "depth": self._pool_depth,
                "peak_depth": self._pool_peak_depth,
                "completed": self._pool_completed,
                "rejected": self._pool_rejected,
                "restarts": self._pool_restarts,
                "task_retries": self._pool_task_retries,
                "degraded_requests": self._degraded_requests,
            },
            "streams": {
                "opened": self._streams_opened,
                "rows": self._stream_rows,
            },
            "deadline_timeouts": self._deadline_timeouts,
        }
