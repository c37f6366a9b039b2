"""The canonical trace: what every request of a run actually did.

A :class:`Trace` bundles the serialised :class:`TrafficSpec` that produced
the run with one :class:`RequestRecord` per planned request — raw observed
facts only (final status, payload verification, structured-error shape,
truncation, row counts, retries, latency), never derived judgements; the
verdict layer (:mod:`repro.loadgen.verdict`) classifies records into
outcomes as a pure function, so a saved trace can always be re-judged.

:func:`outcome_digest` commits to the *deterministic projection* of a trace:
per-request identity (index, kind, route, payload digest) and outcome facts
(status, verification, truncation, rows), excluding wall-clock artefacts
(latency, retry counts, error text).  Two runs of the same spec against an
equivalently-configured service — including the recorded fault plan — must
produce equal digests; CI's ``chaos-replay`` job asserts exactly this.

Traces serialise to plain JSON via :meth:`Trace.save` / :func:`load_trace`
and embed everything replay needs: ``loadgen replay`` rebuilds the plan from
the embedded spec alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_non_negative_int,
)

__all__ = [
    "RequestRecord",
    "Trace",
    "load_trace",
    "outcome_digest",
]

_RECORD_FIELDS: Tuple[str, ...] = (
    "index",
    "kind",
    "method",
    "path",
    "stream",
    "payload_digest",
    "status",
    "ok_verified",
    "structured_error",
    "retry_hint",
    "truncated",
    "timed_out",
    "rows",
    "retries",
    "latency_ms",
    "detail",
)

#: The deterministic projection: every field of a record that must replay
#: identically.  Wall-clock facts (latency, retries, free-text detail) and
#: the timing-sensitive ``timed_out`` flag are deliberately excluded.
_DIGEST_FIELDS: Tuple[str, ...] = (
    "index",
    "kind",
    "method",
    "path",
    "stream",
    "payload_digest",
    "status",
    "ok_verified",
    "structured_error",
    "retry_hint",
    "truncated",
    "rows",
)


@dataclass(frozen=True)
class RequestRecord:
    """Raw observed facts of one request's final attempt."""

    index: int
    kind: str
    method: str
    path: str
    stream: bool
    payload_digest: str
    #: Final HTTP status; 599 is the client's synthetic transport-failure
    #: status (refused, reset, timed out, or a detected truncation).
    status: int
    #: A 2xx response also passed endpoint-specific payload verification.
    ok_verified: bool
    #: A 4xx/5xx carried the service's structured error shape.
    structured_error: bool
    #: The failure carried a retry hint (``Retry-After`` header or an
    #: in-body/in-row ``retry_after_s``).
    retry_hint: bool
    #: The client detected a truncation (599 without a timeout).
    truncated: bool
    #: The 599 was a client-deadline timeout — a hang, not a truncation.
    timed_out: bool
    #: Rows observed on the final attempt (stream lines, or the buffered
    #: response's ``count``).
    rows: int
    retries: int
    latency_ms: float
    detail: str = ""

    def __post_init__(self) -> None:
        check_non_negative_int(self.index, "index")
        check_in_range(self.status, "status", 100, 599)
        check_non_negative_int(self.rows, "rows")
        check_non_negative_int(self.retries, "retries")
        check_non_negative(self.latency_ms, "latency_ms")

    def to_mapping(self) -> Dict[str, Any]:
        """Plain-JSON form (field order fixed by ``_RECORD_FIELDS``)."""
        return {name: getattr(self, name) for name in _RECORD_FIELDS}

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "RequestRecord":
        unknown = sorted(set(data) - set(_RECORD_FIELDS))
        if unknown:
            raise ValueError(f"unknown record field(s): {', '.join(unknown)}")
        return cls(**{name: data[name] for name in _RECORD_FIELDS if name in data})


@dataclass
class Trace:
    """One recorded run: the spec that produced it plus every record."""

    spec: Dict[str, Any]
    records: List[RequestRecord]
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_mapping(self) -> Dict[str, Any]:
        """Plain-JSON form, including the computed outcome digest."""
        return {
            "spec": self.spec,
            "records": [record.to_mapping() for record in self.records],
            "meta": dict(self.meta),
            "outcome_digest": outcome_digest(self.records),
        }

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "Trace":
        if not isinstance(data, Mapping):
            raise ValueError("trace must be a JSON object")
        spec = data.get("spec")
        records = data.get("records")
        if not isinstance(spec, Mapping):
            raise ValueError("trace.spec must be an object")
        if not isinstance(records, list):
            raise ValueError("trace.records must be a list")
        meta = data.get("meta", {})
        if not isinstance(meta, Mapping):
            raise ValueError("trace.meta must be an object")
        trace = cls(
            spec=dict(spec),
            records=[RequestRecord.from_mapping(r) for r in records],
            meta=dict(meta),
        )
        stored = data.get("outcome_digest")
        if stored is not None and stored != outcome_digest(trace.records):
            raise ValueError(
                "trace outcome_digest does not match its records "
                "(corrupted or hand-edited trace file)"
            )
        return trace

    def save(self, path: str) -> None:
        """Write the trace as deterministic (sorted-key) JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_mapping(), handle, sort_keys=True, indent=1)
            handle.write("\n")


def load_trace(path: str) -> Trace:
    """Read a trace written by :meth:`Trace.save` (digest-checked)."""
    with open(path, "r", encoding="utf-8") as handle:
        return Trace.from_mapping(json.load(handle))


def outcome_digest(records: Sequence[RequestRecord]) -> str:
    """SHA-256 over the deterministic projection of every record, in order.

    Canonical (sorted-key, no-whitespace) JSON, so the digest is stable
    across Python versions and serialisation details.  Replaying a trace's
    spec against an equivalent service must reproduce this digest exactly.
    """
    projection = [
        {name: getattr(record, name) for name in _DIGEST_FIELDS}
        for record in records
    ]
    blob = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
