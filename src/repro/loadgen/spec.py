"""Declarative, seed-deterministic traffic model for the chaos load generator.

A :class:`TrafficSpec` fully determines one load-generation run against the
planning service: which endpoints are exercised (:class:`EndpointMix`, one
entry per endpoint *kind* covering every ``/v1/*`` route plus the streamed
NDJSON variants), how requests arrive over time (:class:`ArrivalSpec` —
Poisson, bursty on/off, or ramped open-loop processes), how the client
behaves under failure (:class:`ClientPolicy` — per-request retry backoff and
timeout), and which faults fire when (:class:`FaultEvent`, scheduled at a
specific global request index).

Everything downstream — arrival offsets, request payloads, retry jitter —
derives from ``TrafficSpec.seed`` through named ``SeedSequence`` spawns, so
building the plan twice yields byte-identical requests: the contract the
trace record/replay layer (:mod:`repro.loadgen.trace`) and CI's
``chaos-replay`` job assert.

Specs parse from plain JSON mappings via :func:`traffic_from_mapping`
(strict: unknown keys are rejected) and serialise back with
:func:`traffic_to_mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.service.faults import FAULT_ACTIONS, FaultRequest
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)

__all__ = [
    "ENDPOINT_KINDS",
    "FAULT_ACTIONS",
    "ArrivalSpec",
    "ClientPolicy",
    "EndpointMix",
    "FaultEvent",
    "TrafficSpec",
    "endpoint_route",
    "traffic_from_mapping",
    "traffic_to_mapping",
]

#: Endpoint kind → (HTTP method, path, streamed?).  The twelve kinds cover
#: all seven service routes; sweep-capable routes appear three times —
#: scalar (coalesced), buffered sweep, and streamed NDJSON sweep.
_ROUTES: Dict[str, Tuple[str, str, bool]] = {
    "healthz": ("GET", "/healthz", False),
    "metrics": ("GET", "/metrics", False),
    "ebar": ("POST", "/v1/ebar", False),
    "overlay": ("POST", "/v1/overlay/feasible", False),
    "overlay_sweep": ("POST", "/v1/overlay/feasible", False),
    "overlay_stream": ("POST", "/v1/overlay/feasible", True),
    "underlay": ("POST", "/v1/underlay/energy", False),
    "underlay_sweep": ("POST", "/v1/underlay/energy", False),
    "underlay_stream": ("POST", "/v1/underlay/energy", True),
    "interweave": ("POST", "/v1/interweave/pattern", False),
    "simulate": ("POST", "/v1/simulate", False),
    "simulate_stream": ("POST", "/v1/simulate", True),
}

#: The valid ``EndpointMix.kind`` values, in canonical order.
ENDPOINT_KINDS: Tuple[str, ...] = tuple(_ROUTES)

def endpoint_route(kind: str) -> Tuple[str, str, bool]:
    """``(method, path, streamed)`` for one endpoint kind."""
    try:
        return _ROUTES[kind]
    except KeyError:
        raise ValueError(
            f"unknown endpoint kind {kind!r}; "
            f"known: {', '.join(ENDPOINT_KINDS)}"
        ) from None


@dataclass(frozen=True)
class ArrivalSpec:
    """One endpoint's open-loop arrival process.

    ``poisson`` draws exponential inter-arrival times at ``rate_per_s``.
    ``bursty`` alternates deterministic on/off windows (``burst_on_s`` /
    ``burst_off_s``, starting *on*) and thins a peak-rate Poisson stream of
    ``rate_per_s * burst_factor`` down to the on windows.  ``ramp`` thins
    against a linearly growing rate from ``rate_per_s`` at t=0 up to
    ``rate_per_s * ramp_factor`` at the end of the run.
    """

    process: str = "poisson"
    rate_per_s: float = 4.0
    burst_factor: float = 4.0
    burst_on_s: float = 1.0
    burst_off_s: float = 1.0
    ramp_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.process not in ("poisson", "bursty", "ramp"):
            raise ValueError(
                f"process must be poisson|bursty|ramp, got {self.process!r}"
            )
        check_positive(self.rate_per_s, "rate_per_s")
        check_positive(self.burst_factor, "burst_factor")
        check_positive(self.burst_on_s, "burst_on_s")
        check_positive(self.burst_off_s, "burst_off_s")
        check_positive(self.ramp_factor, "ramp_factor")


@dataclass(frozen=True)
class EndpointMix:
    """One endpoint kind plus its arrival process and payload knobs.

    ``sweep_points`` sizes the axis of sweep/stream requests;
    ``sim_nodes``/``sim_duration_s``/``sim_snapshot_s`` shape the scenarios
    posted to ``/v1/simulate`` (kept small by default so a smoke plan
    streams a handful of snapshot rows per request, not thousands).
    """

    kind: str = "ebar"
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    sweep_points: int = 8
    sim_nodes: int = 10
    sim_duration_s: float = 3.0
    sim_snapshot_s: float = 1.0

    def __post_init__(self) -> None:
        endpoint_route(self.kind)  # validates
        check_positive_int(self.sweep_points, "sweep_points")
        check_positive_int(self.sim_nodes, "sim_nodes")
        check_positive(self.sim_duration_s, "sim_duration_s")
        check_positive(self.sim_snapshot_s, "sim_snapshot_s")


@dataclass(frozen=True)
class ClientPolicy:
    """Per-request client behavior: timeout and retry backoff.

    The runner owns the retry loop (not :class:`ServiceClient`'s built-in
    one) so that *any* status listed in ``retry_on`` — including terminal
    mid-stream error rows like a 500 from a killed simulate child — can be
    replayed.  Every endpoint is a deterministic pure function of its body,
    so replays are always safe; with an active fault plan, retrying is what
    makes the recorded outcome sequence independent of *which* in-flight
    request happened to draw a count-armed fault.  ``max_attempts=1``
    disables retries (used by tests that assert the raw failure shape).
    """

    timeout_s: float = 30.0
    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    retry_on: Tuple[int, ...] = (429, 500, 503, 504, 599)

    def __post_init__(self) -> None:
        check_positive(self.timeout_s, "timeout_s")
        check_positive_int(self.max_attempts, "max_attempts")
        check_positive(self.base_delay_s, "base_delay_s")
        check_positive(self.multiplier, "multiplier")
        check_positive(self.max_delay_s, "max_delay_s")
        for status in self.retry_on:
            check_in_range(status, "retry_on status", 400, 599)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``action`` just before request ``at_request``.

    ``at_request`` is a global plan index — the fault is delivered after the
    previous request has been *dispatched* and before this one is, which
    pins chaos to a reproducible point in the request sequence.  The other
    fields are the event the runner POSTs to the target's
    ``/chaos/faults`` (see :class:`repro.service.faults.FaultRequest`):
    ``count`` arms that many firings; ``after_rows`` positions stream
    faults mid-stream; ``path`` scopes path-matched faults (``None`` =
    any); ``delay_ms`` sizes ``delay`` actions.
    """

    action: str = "kill_worker"
    at_request: int = 0
    count: int = 1
    after_rows: int = 0
    path: Optional[str] = None
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"known: {', '.join(FAULT_ACTIONS)}"
            )
        check_non_negative_int(self.at_request, "at_request")
        check_positive_int(self.count, "count")
        check_non_negative_int(self.after_rows, "after_rows")
        check_non_negative(self.delay_ms, "delay_ms")
        if self.action == "delay" and self.delay_ms <= 0.0:
            raise ValueError("delay faults need delay_ms > 0")

    def request(self) -> FaultRequest:
        """The event as the ``POST /chaos/faults`` body describes it."""
        return FaultRequest(
            action=self.action,
            count=self.count,
            after_rows=self.after_rows,
            path=self.path,
            delay_ms=self.delay_ms,
        )


@dataclass(frozen=True)
class TrafficSpec:
    """A complete, replayable load-generation run."""

    seed: int = 0
    duration_s: float = 5.0
    mix: Tuple[EndpointMix, ...] = (EndpointMix(),)
    client: ClientPolicy = field(default_factory=ClientPolicy)
    faults: Tuple[FaultEvent, ...] = ()
    max_concurrency: int = 8
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative_int(self.seed, "seed")
        check_positive(self.duration_s, "duration_s")
        if not self.mix:
            raise ValueError("need at least one endpoint mix entry")
        kinds = [m.kind for m in self.mix]
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"duplicate endpoint kinds in mix: {kinds}")
        check_positive_int(self.max_concurrency, "max_concurrency")
        check_non_negative(self.time_scale, "time_scale")


# --------------------------------------------------------------------- #
# Strict mapping parse / serialise                                      #
# --------------------------------------------------------------------- #

_ARRIVAL_FIELDS: Dict[str, type] = {
    "process": str,
    "rate_per_s": float,
    "burst_factor": float,
    "burst_on_s": float,
    "burst_off_s": float,
    "ramp_factor": float,
}

_MIX_SCALAR_FIELDS: Dict[str, type] = {
    "kind": str,
    "sweep_points": int,
    "sim_nodes": int,
    "sim_duration_s": float,
    "sim_snapshot_s": float,
}

_CLIENT_FIELDS: Dict[str, type] = {
    "timeout_s": float,
    "max_attempts": int,
    "base_delay_s": float,
    "multiplier": float,
    "max_delay_s": float,
}

_FAULT_FIELDS: Dict[str, type] = {
    "action": str,
    "at_request": int,
    "count": int,
    "after_rows": int,
    "delay_ms": float,
}

_SPEC_SCALAR_FIELDS: Dict[str, type] = {
    "seed": int,
    "duration_s": float,
    "max_concurrency": int,
    "time_scale": float,
}


def _coerce(value: Any, kind: type, name: str) -> Any:
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number")
    if kind is int:
        if float(value) != int(value):
            raise ValueError(f"{name} must be an integer")
        return int(value)
    return float(value)


def _parse_fields(
    data: Mapping[str, Any], fields: Mapping[str, type], what: str
) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in data.items():
        if key not in fields:
            raise ValueError(f"unknown {what} field: {key!r}")
        out[key] = _coerce(value, fields[key], key)
    return out


def _parse_mix(value: Any, index: int) -> EndpointMix:
    if not isinstance(value, Mapping):
        raise ValueError(f"mix[{index}] must be an object")
    kwargs: Dict[str, Any] = {}
    for key, item in value.items():
        if key in _MIX_SCALAR_FIELDS:
            kwargs[key] = _coerce(item, _MIX_SCALAR_FIELDS[key], key)
        elif key == "arrival":
            if not isinstance(item, Mapping):
                raise ValueError(f"mix[{index}].arrival must be an object")
            kwargs[key] = ArrivalSpec(
                **_parse_fields(item, _ARRIVAL_FIELDS, f"mix[{index}].arrival")
            )
        else:
            raise ValueError(f"unknown mix[{index}] field: {key!r}")
    return EndpointMix(**kwargs)


def _parse_client(value: Any) -> ClientPolicy:
    if not isinstance(value, Mapping):
        raise ValueError("client must be an object")
    kwargs: Dict[str, Any] = {}
    for key, item in value.items():
        if key in _CLIENT_FIELDS:
            kwargs[key] = _coerce(item, _CLIENT_FIELDS[key], key)
        elif key == "retry_on":
            if not isinstance(item, (list, tuple)) or not all(
                isinstance(s, int) and not isinstance(s, bool) for s in item
            ):
                raise ValueError("client.retry_on must be an integer list")
            kwargs[key] = tuple(int(s) for s in item)
        else:
            raise ValueError(f"unknown client field: {key!r}")
    return ClientPolicy(**kwargs)


def _parse_fault(value: Any, index: int) -> FaultEvent:
    if not isinstance(value, Mapping):
        raise ValueError(f"faults[{index}] must be an object")
    kwargs: Dict[str, Any] = {}
    for key, item in value.items():
        if key in _FAULT_FIELDS:
            kwargs[key] = _coerce(item, _FAULT_FIELDS[key], key)
        elif key == "path":
            if item is not None and not isinstance(item, str):
                raise ValueError(f"faults[{index}].path must be a string")
            kwargs[key] = item
        else:
            raise ValueError(f"unknown faults[{index}] field: {key!r}")
    return FaultEvent(**kwargs)


def traffic_from_mapping(data: Mapping[str, Any]) -> TrafficSpec:
    """Build a :class:`TrafficSpec` from a plain JSON-style mapping.

    Strict: unknown keys raise ``ValueError``, as do type mismatches.
    Missing keys take the dataclass defaults.
    """
    if not isinstance(data, Mapping):
        raise ValueError("traffic spec must be a JSON object")
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key in _SPEC_SCALAR_FIELDS:
            kwargs[key] = _coerce(value, _SPEC_SCALAR_FIELDS[key], key)
        elif key == "mix":
            if not isinstance(value, (list, tuple)):
                raise ValueError("mix must be a list of endpoint objects")
            kwargs[key] = tuple(
                _parse_mix(item, i) for i, item in enumerate(value)
            )
        elif key == "client":
            kwargs[key] = _parse_client(value)
        elif key == "faults":
            if not isinstance(value, (list, tuple)):
                raise ValueError("faults must be a list of event objects")
            kwargs[key] = tuple(
                _parse_fault(item, i) for i, item in enumerate(value)
            )
        else:
            raise ValueError(f"unknown traffic spec field: {key!r}")
    return TrafficSpec(**kwargs)


def traffic_to_mapping(spec: TrafficSpec) -> Dict[str, Any]:
    """Serialise a spec back to the JSON mapping form (round-trips)."""
    out: Dict[str, Any] = {
        name: getattr(spec, name) for name in _SPEC_SCALAR_FIELDS
    }
    mix: List[Dict[str, Any]] = []
    for entry in spec.mix:
        item: Dict[str, Any] = {
            name: getattr(entry, name) for name in _MIX_SCALAR_FIELDS
        }
        item["arrival"] = {
            name: getattr(entry.arrival, name) for name in _ARRIVAL_FIELDS
        }
        mix.append(item)
    out["mix"] = mix
    client: Dict[str, Any] = {
        name: getattr(spec.client, name) for name in _CLIENT_FIELDS
    }
    client["retry_on"] = list(spec.client.retry_on)
    out["client"] = client
    out["faults"] = [
        {
            **{name: getattr(event, name) for name in _FAULT_FIELDS},
            "path": event.path,
        }
        for event in spec.faults
    ]
    return out
