"""Trace serialisation, outcome digests, and verdict classification."""

import json

import pytest

from repro.loadgen.trace import (
    RequestRecord,
    Trace,
    load_trace,
    outcome_digest,
)
from repro.loadgen.verdict import OUTCOMES, classify, evaluate


def record(**overrides):
    base = dict(
        index=0,
        kind="ebar",
        method="POST",
        path="/v1/ebar",
        stream=False,
        payload_digest="d" * 64,
        status=200,
        ok_verified=True,
        structured_error=False,
        retry_hint=False,
        truncated=False,
        timed_out=False,
        rows=1,
        retries=0,
        latency_ms=1.25,
        detail="",
    )
    base.update(overrides)
    return RequestRecord(**base)


class TestClassify:
    def test_verified_2xx_is_ok(self):
        assert classify(record()) == ("ok", "")

    def test_unverified_2xx_is_a_violation(self):
        outcome, reason = classify(record(ok_verified=False))
        assert outcome == "violation"
        assert "verification" in reason

    def test_structured_error_is_rejected(self):
        rec = record(status=400, ok_verified=False, structured_error=True)
        assert classify(rec) == ("rejected", "")

    def test_malformed_error_body_is_a_violation(self):
        rec = record(status=500, ok_verified=False, structured_error=False)
        outcome, reason = classify(rec)
        assert outcome == "violation"
        assert "malformed" in reason

    @pytest.mark.parametrize("status", [429, 503])
    def test_backpressure_without_hint_is_a_violation(self, status):
        rec = record(status=status, ok_verified=False, structured_error=True)
        outcome, reason = classify(rec)
        assert outcome == "violation"
        assert "retry hint" in reason

    @pytest.mark.parametrize("status", [429, 503])
    def test_backpressure_with_hint_is_rejected(self, status):
        rec = record(
            status=status,
            ok_verified=False,
            structured_error=True,
            retry_hint=True,
        )
        assert classify(rec) == ("rejected", "")

    def test_detected_truncation_is_accounted(self):
        rec = record(status=599, ok_verified=False, truncated=True)
        assert classify(rec) == ("truncated", "")

    def test_hang_is_a_violation(self):
        rec = record(status=599, ok_verified=False, timed_out=True)
        outcome, reason = classify(rec)
        assert outcome == "violation"
        assert "hang" in reason


class TestEvaluate:
    def test_passes_only_with_zero_violations(self):
        good = [
            record(index=0),
            record(index=1, status=429, ok_verified=False,
                   structured_error=True, retry_hint=True),
            record(index=2, status=599, ok_verified=False, truncated=True),
        ]
        verdict = evaluate(good)
        assert verdict.passed
        assert verdict.total == 3
        assert verdict.counts == {
            "ok": 1, "rejected": 1, "truncated": 1, "violation": 0,
        }
        assert set(verdict.counts) == set(OUTCOMES)

    def test_violation_fails_with_details(self):
        bad = [record(index=7, status=500, ok_verified=False)]
        verdict = evaluate(bad)
        assert not verdict.passed
        assert verdict.violations[0]["index"] == 7
        assert verdict.violations[0]["status"] == 500
        assert "malformed" in verdict.violations[0]["reason"]

    def test_verdict_mapping_is_json(self):
        verdict = evaluate([record()])
        json.dumps(verdict.to_mapping())


class TestTrace:
    def test_save_load_round_trip(self, tmp_path):
        trace = Trace(
            spec={"seed": 1},
            records=[record(), record(index=1, latency_ms=9.5, retries=2)],
            meta={"n_requests": 2},
        )
        path = str(tmp_path / "trace.json")
        trace.save(path)
        loaded = load_trace(path)
        assert loaded.records == trace.records
        assert loaded.spec == trace.spec
        assert loaded.meta == trace.meta

    def test_digest_ignores_wall_clock_facts(self):
        a = [record(latency_ms=1.0, retries=0, detail="")]
        b = [record(latency_ms=99.0, retries=3, detail="slow")]
        assert outcome_digest(a) == outcome_digest(b)

    def test_digest_sees_outcome_facts(self):
        a = [record()]
        assert outcome_digest(a) != outcome_digest([record(status=500)])
        assert outcome_digest(a) != outcome_digest([record(rows=2)])
        assert outcome_digest(a) != outcome_digest(
            [record(ok_verified=False)]
        )

    def test_tampered_trace_is_rejected(self, tmp_path):
        trace = Trace(spec={}, records=[record()], meta={})
        path = str(tmp_path / "trace.json")
        trace.save(path)
        with open(path) as handle:
            data = json.load(handle)
        data["records"][0]["status"] = 500
        with open(path, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(ValueError, match="digest"):
            load_trace(path)

    def test_unknown_record_field_rejected(self):
        with pytest.raises(ValueError, match="unknown record field"):
            RequestRecord.from_mapping({"index": 0, "surprise": 1})
