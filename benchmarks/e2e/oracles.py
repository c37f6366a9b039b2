"""Output correctness and cross-layer accounting, checked after the window.

Three oracles, cheapest first:

* **structure** — every 2xx payload parses and describes the request that
  asked for it (echoed parameters, row counts, finite values); a stream
  ends with its ``done``/``summary`` row carrying the right count, and a
  scenario summary's digest equals the SHA-256 of the snapshot rows
  actually received;
* **direct** — on plan-unique and plan-sweep every 20th request (by
  index) is recomputed by calling the library directly, and must equal the
  served value exactly: coalesced and pooled execution equal direct calls;
* **replay** — on plan-repeat every timed response is byte-identical to
  the warm-pass response for the same body.

:func:`accounting` then reconciles the server's own ``/metrics`` deltas
over the timed window with what the client sent and received.
"""

import json
import math
from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from httpgen import Sample
from traffic import EBAR_P_GRID

DIRECT_EVERY = 20

_OVERLAY_KEYS = {"d1", "m", "bandwidth", "p_direct", "p_relay", "e1", "b_direct",
                 "d2", "b_simo", "d3", "b_miso", "feasible"}
_UNDERLAY_KEYS = {"mt", "mr", "b", "d", "distance", "total_pa", "peak_pa"}


def canonical(value: Any) -> str:
    """Formatting-free comparison form (NaN-safe, key-order-free)."""
    return json.dumps(value, sort_keys=True)


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def payload_rows(sample: Sample) -> List[Dict[str, Any]]:
    """The rows of a buffered or streamed sweep response."""
    if sample.request.stream:  # the last line is the terminal ``done`` row
        return [json.loads(line) for line in sample.rows[:-1]]
    payload = json.loads(sample.body)
    return list(payload["rows"])


def _check_rows(kind: str, body: Mapping[str, Any], rows: List[Dict[str, Any]]) -> Optional[str]:
    axis_key, keys = ("d1", _OVERLAY_KEYS) if kind.startswith("overlay") else (
        "distance", _UNDERLAY_KEYS)
    axis = body[axis_key]
    axis = axis if isinstance(axis, list) else [axis]
    if len(rows) != len(axis):
        return f"{len(rows)} rows for {len(axis)} points"
    for row, point in zip(rows, axis):
        if set(row) != keys:
            return f"row keys {sorted(row)}"
        if row[axis_key] != point:
            return f"row {axis_key}={row[axis_key]} for point {point}"
        numbers = [value for key, value in row.items() if key != "feasible"]
        if not all(_finite(value) for value in numbers):
            return f"non-finite value in row {row}"
    return None


def check_structure(sample: Sample, snapshots_per_scenario: int = 0) -> Optional[str]:
    """Why this response is wrong, or None when it is well-formed."""
    if not sample.ok:
        return f"status {sample.status} {sample.error or ''}".strip()
    request, kind = sample.request, sample.request.kind
    body = json.loads(request.body) if request.body else {}
    try:
        if kind == "simulate":
            return _check_scenario(sample, snapshots_per_scenario)
        if request.stream:
            *rows, terminal = [json.loads(line) for line in sample.rows]
            if terminal != {"done": True, "count": len(rows)}:
                return f"terminal row {terminal}"
            return _check_rows(kind, body, rows)
        payload = json.loads(sample.body)
        if kind == "healthz":
            return None if payload == {"status": "ok"} else f"health {payload}"
        if kind == "ebar":
            echoed = {key: payload[key] for key in ("p", "b", "mt", "mr", "solver")}
            if echoed != body or payload["convention"] != "paper":
                return f"echo {echoed}"
            if not (_finite(payload["e_bar"]) and payload["e_bar"] > 0.0):
                return f"e_bar {payload['e_bar']}"
            return None if payload["p_grid"] in EBAR_P_GRID else f"p_grid {payload['p_grid']}"
        if kind == "interweave":
            amplitudes = payload["amplitudes"]
            if payload["count"] != 1 or len(amplitudes) != 1:
                return f"{len(amplitudes)} amplitudes"
            ok = _finite(amplitudes[0]) and amplitudes[0] >= 0.0 and _finite(payload["delta"])
            return None if ok else f"amplitude {amplitudes} delta {payload['delta']}"
        rows = payload["rows"]
        if payload["count"] != len(rows):
            return f"count {payload['count']} for {len(rows)} rows"
        return _check_rows(kind, body, rows)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed payload: {type(exc).__name__}: {exc}"


def _check_scenario(sample: Sample, snapshots: int) -> Optional[str]:
    from repro.scenario.runtime import rows_digest

    *rows, summary = [json.loads(line) for line in sample.rows]
    if summary.get("row") != "summary":
        return f"stream ended with {summary.get('row')!r}, not a summary"
    if len(rows) != snapshots or any(row.get("row") != "snapshot" for row in rows):
        return f"{len(rows)} snapshot rows, expected {snapshots}"
    if rows_digest(rows) != summary["digest"]:
        return "summary digest does not match the snapshot rows received"
    if summary["events_processed"] != rows[-1]["events_processed"]:
        return "summary events_processed differs from the last snapshot"
    return None


class Direct:
    """The library called directly, as the coalesced-equals-direct oracle."""

    def __init__(self) -> None:
        from repro.energy.table import EbarTable
        from repro.service import schemas, work

        # An independent solve, not the server's cached grid file.
        self.table = EbarTable(use_cache=False)
        self.schemas = schemas
        self.work = work

    def expected(self, kind: str, body: Dict[str, Any]) -> Any:
        """The served payload's value (rows for sweeps) for ``body``."""
        work, schemas = self.work, self.schemas
        if kind == "ebar":
            return self.table.lookup(body["p"], body["b"], body["mt"], body["mr"])
        if kind in ("overlay", "overlay_sweep"):
            return work.overlay_rows(schemas.parse_overlay_request(body))
        if kind in ("underlay", "underlay_sweep"):
            return work.underlay_rows(schemas.parse_underlay_request(body))
        request = schemas.parse_interweave_request(body)
        return [work.interweave_amplitudes(request), work.interweave_delta(request)]

    def check(self, sample: Sample) -> Optional[str]:
        kind = sample.request.kind
        expected = self.expected(kind, json.loads(sample.request.body))
        if kind == "ebar":
            served: Any = json.loads(sample.body)["e_bar"]
        elif kind == "interweave":
            payload = json.loads(sample.body)
            served = [payload["amplitudes"], payload["delta"]]
        else:
            served = payload_rows(sample)
        # Through JSON once: the served value made the same trip.
        if canonical(served) != canonical(json.loads(json.dumps(expected))):
            return f"served value differs from the direct library call for {kind}"
        return None


def _counter(snapshot: Mapping[str, Any], keys: Tuple[str, ...]) -> Any:
    """A (possibly nested) ``/metrics`` counter; absent counts as 0."""
    value: Any = snapshot
    for key in keys:
        value = value.get(key, 0) if isinstance(value, Mapping) else 0
    return value


def delta(before: Mapping[str, Any], after: Mapping[str, Any], keys: Tuple[str, ...]) -> Any:
    """How far a ``/metrics`` counter (or a map of them) moved."""
    new, old = _counter(after, keys), _counter(before, keys)
    if isinstance(new, Mapping):
        old = old if isinstance(old, Mapping) else {}
        return {key: value - old.get(key, 0) for key, value in new.items()
                if value != old.get(key, 0)}
    return new - old


def accounting(
    workload: str,
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    samples: Iterable[Sample],
) -> List[str]:
    """Mismatches between ``/metrics`` deltas and the client's own counts.

    The ``before`` snapshot's own ``GET /metrics`` is counted by the
    server before it renders, and its 200 after; hence the ``+1``s.
    """
    samples = list(samples)
    paths = Counter(sample.request.path for sample in samples)
    paths["/metrics"] += 1
    statuses = Counter(str(sample.status) for sample in samples if sample.status)
    statuses["200"] += 1
    timed = len(samples)
    expect = {
        ("requests_by_endpoint",): dict(paths),
        ("responses_by_status",): dict(statuses),
        ("streams", "rows"): sum(len(s.rows) for s in samples if s.request.stream),
        ("result_cache", "hits"): timed if workload == "plan-repeat" else 0,
        ("coalesce", "requests"): timed if workload == "plan-unique" else 0,
        ("pool", "completed"): timed if workload == "plan-sweep" else 0,
    }
    mismatches = []
    for keys, want in expect.items():
        got = delta(before, after, keys)
        if got != want:
            mismatches.append(f"/metrics {'.'.join(keys)} moved by {got}, client saw {want}")
    return mismatches
