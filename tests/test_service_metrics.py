"""Metrics counters, the latency histogram, and the doc that lists them."""

import json
import pathlib

import pytest

from repro.service.metrics import LatencyHistogram, Metrics

SERVING_DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "serving.md"


class TestLatencyHistogram:
    def test_empty_quantiles_are_zero(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.count == 0

    def test_quantiles_bracket_observations(self):
        hist = LatencyHistogram(bounds_ms=(1.0, 10.0, 100.0))
        for _ in range(100):
            hist.observe(5.0)
        p50 = hist.quantile(0.5)
        assert 1.0 <= p50 <= 10.0  # within the bucket holding every sample

    def test_overflow_bucket_reports_max(self):
        hist = LatencyHistogram(bounds_ms=(1.0,))
        hist.observe(500.0)
        assert hist.quantile(0.99) == 500.0
        snap = hist.snapshot()
        assert snap["buckets"]["overflow"] == 1
        assert snap["max_ms"] == 500.0

    def test_snapshot_counts_and_sum(self):
        hist = LatencyHistogram()
        hist.observe(1.0)
        hist.observe(3.0)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["sum_ms"] == pytest.approx(4.0)
        assert set(snap) >= {"p50_ms", "p95_ms", "p99_ms", "buckets"}
        # /metrics is served with sort_keys=True: "le_10" arrives before "le_2".
        wire = json.loads(json.dumps(snap, sort_keys=True))
        rebuilt = LatencyHistogram.from_snapshot(wire).snapshot()
        assert rebuilt == snap
        assert rebuilt["p50_ms"] <= rebuilt["p95_ms"] <= rebuilt["p99_ms"]
        assert rebuilt["p99_ms"] <= rebuilt["max_ms"]

    def test_invalid_inputs_rejected(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.observe(-1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=())
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=(0.0, 1.0))


class TestMetrics:
    def test_request_response_counters(self):
        metrics = Metrics()
        metrics.record_request("/v1/ebar")
        metrics.record_request("/v1/ebar")
        metrics.record_request("/healthz")
        metrics.record_response(200, 1.0)
        metrics.record_response(404, 0.5)
        snap = metrics.snapshot()
        assert snap["requests_total"] == 3
        assert snap["requests_by_endpoint"] == {"/v1/ebar": 2, "/healthz": 1}
        assert snap["responses_by_status"] == {"200": 1, "404": 1}
        assert snap["latency_ms"]["count"] == 2

    def test_batch_statistics(self):
        metrics = Metrics()
        metrics.observe_batch(1)
        metrics.observe_batch(3)
        assert metrics.mean_batch_size() == pytest.approx(2.0)
        snap = metrics.snapshot()
        assert snap["coalesce"] == {
            "batches": 2,
            "requests": 4,
            "mean_batch_size": 2.0,
            "max_batch_size": 3,
        }
        with pytest.raises(ValueError):
            metrics.observe_batch(0)

    def test_cache_and_pool_counters(self):
        metrics = Metrics()
        metrics.result_cache_hit()
        metrics.result_cache_miss()
        metrics.pool_enter()
        metrics.pool_enter()
        metrics.pool_exit()
        metrics.pool_reject()
        snap = metrics.snapshot()
        assert snap["result_cache"] == {"hits": 1, "misses": 1}
        assert snap["pool"]["depth"] == 1
        assert snap["pool"]["peak_depth"] == 2
        assert snap["pool"]["completed"] == 1
        assert snap["pool"]["rejected"] == 1
        assert metrics.pool_depth == 1


class TestMetricsDoc:
    def test_serving_doc_names_every_snapshot_key(self):
        text = SERVING_DOC.read_text(encoding="utf-8")
        start = text.index("## Metrics and logging")
        end = text.find("\n## ", start)
        section = text[start:end]
        snapshot = Metrics().snapshot()
        # The app adds `health`; a shard supervisor adds `shards`.
        keys = set(snapshot) | {"health", "shards"}
        for block in snapshot.values():
            if isinstance(block, dict):
                keys |= set(block)
        missing = sorted(key for key in keys if f"`{key}`" not in section)
        assert not missing, f"'Metrics and logging' does not name {missing}"
