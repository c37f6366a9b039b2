"""Plan construction: a :class:`TrafficSpec` → a deterministic request list.

:func:`build_plan` expands the spec into one :class:`PlannedRequest` per
arrival, with concrete send offsets and fully-sampled JSON payloads.  Each
mix entry gets two dedicated ``SeedSequence`` children (arrivals, payloads)
spawned from ``spec.seed``, so adding an endpoint to the mix cannot perturb
any other endpoint's requests, and building the same spec twice yields an
identical plan — the foundation of the record/replay contract.

Payload samplers draw only from parameter ranges the bench harness has
proven feasible against the default service configuration (the ``ebar``
table grids, overlay distances inside Algorithm 1's feasible band, underlay
distances within power budget), so a fault-free run produces zero 4xx
responses — any rejection in a verdict is then attributable to the fault
plan or a service bug, never to the generator asking impossible questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.loadgen.arrivals import arrival_offsets_s
from repro.loadgen.spec import EndpointMix, TrafficSpec, endpoint_route
from repro.service.rescache import canonical_digest
from repro.utils.rng import as_rng, spawn_seed_sequences
from repro.utils.validation import check_non_negative, check_non_negative_int

__all__ = ["PlannedRequest", "build_plan"]

Payload = Dict[str, Any]

#: (mt, mr) antenna pairs present in the default ē_b lookup table.
_EBAR_ANTENNAS: Tuple[Tuple[int, int], ...] = ((1, 1), (2, 2), (2, 3), (4, 4))
#: Target BERs on the default table's p grid.
_EBAR_P: Tuple[float, ...] = (0.1, 0.05, 0.01, 0.005, 0.001, 0.0005)
#: Constellation sizes on the default table's b grid.
_EBAR_B: Tuple[int, ...] = tuple(range(1, 17))


@dataclass(frozen=True)
class PlannedRequest:
    """One fully-determined request of a plan."""

    index: int
    t_send_s: float
    kind: str
    method: str
    path: str
    stream: bool
    body: Optional[Payload]
    payload_digest: str

    def __post_init__(self) -> None:
        check_non_negative_int(self.index, "index")
        check_non_negative(self.t_send_s, "t_send_s")


def build_plan(spec: TrafficSpec) -> List[PlannedRequest]:
    """Expand ``spec`` into its complete, deterministic request sequence.

    Requests are globally ordered by send offset (ties broken by mix
    position, then arrival number — both seed-stable) and indexed 0..n-1;
    fault events address these indexes.
    """
    children = spawn_seed_sequences(spec.seed, 2 * len(spec.mix))
    staged: List[Tuple[float, int, int, PlannedRequest]] = []
    for entry_idx, entry in enumerate(spec.mix):
        arrival_seed = children[2 * entry_idx]
        payload_rng = as_rng(children[2 * entry_idx + 1])
        offsets = arrival_offsets_s(entry.arrival, spec.duration_s, arrival_seed)
        method, path, stream = endpoint_route(entry.kind)
        for j, offset in enumerate(offsets):
            body = _sample_body(entry, payload_rng)
            request = PlannedRequest(
                index=0,  # reassigned after the global sort
                t_send_s=round(float(offset), 6),
                kind=entry.kind,
                method=method,
                path=path,
                stream=stream,
                body=body,
                payload_digest=canonical_digest(path, body if body is not None else {}),
            )
            staged.append((request.t_send_s, entry_idx, j, request))
    staged.sort(key=lambda item: (item[0], item[1], item[2]))
    return [
        PlannedRequest(
            index=i,
            t_send_s=request.t_send_s,
            kind=request.kind,
            method=request.method,
            path=request.path,
            stream=request.stream,
            body=request.body,
            payload_digest=request.payload_digest,
        )
        for i, (_, _, _, request) in enumerate(staged)
    ]


# --------------------------------------------------------------------- #
# Payload samplers (bench-proven feasible parameter ranges)             #
# --------------------------------------------------------------------- #


def _sample_body(
    entry: EndpointMix, rng: np.random.Generator
) -> Optional[Payload]:
    kind = entry.kind
    if kind in ("healthz", "metrics"):
        return None
    if kind == "ebar":
        mt, mr = _EBAR_ANTENNAS[int(rng.integers(len(_EBAR_ANTENNAS)))]
        return {
            "p": _EBAR_P[int(rng.integers(len(_EBAR_P)))],
            "b": _EBAR_B[int(rng.integers(len(_EBAR_B)))],
            "mt": mt,
            "mr": mr,
            "solver": "table",
        }
    if kind == "overlay":
        return _overlay_body(_round(10.0 + 0.625 * int(rng.integers(120))), rng)
    if kind in ("overlay_sweep", "overlay_stream"):
        start = 15.0 + 5.0 * int(rng.integers(8))
        d1 = [_round(start + 2.0 * k) for k in range(entry.sweep_points)]
        return _overlay_body(d1, rng)
    if kind == "underlay":
        return _underlay_body(_round(30.0 + 0.5 * int(rng.integers(120))))
    if kind in ("underlay_sweep", "underlay_stream"):
        start = 35.0 + 5.0 * int(rng.integers(8))
        distance = [_round(start + 3.0 * k) for k in range(entry.sweep_points)]
        return _underlay_body(distance)
    if kind == "interweave":
        angle = 2.0 * np.pi * int(rng.integers(64)) / 64.0
        return {
            "st1": [0.0, 0.0],
            "st2": [15.0, 0.0],
            "wavelength": 30.0,
            "point": [_round(300.0 * np.cos(angle)), _round(300.0 * np.sin(angle))],
            "pr": [100.0, 0.0],
        }
    # simulate / simulate_stream: a small, replayable city scenario.
    return {
        "n_nodes": entry.sim_nodes,
        "duration_s": entry.sim_duration_s,
        "snapshot_interval_s": entry.sim_snapshot_s,
        "seed": int(rng.integers(2**31 - 1)),
        "arena_m": [400.0, 400.0],
    }


def _overlay_body(d1: object, rng: np.random.Generator) -> Payload:
    return {
        "d1": d1,
        "m": int(rng.integers(2, 4)),
        "bandwidth": 10e3,
    }


def _underlay_body(distance: object) -> Payload:
    return {
        "p": 1e-3,
        "mt": 2,
        "mr": 2,
        "d": 5.0,
        "distance": distance,
        "bandwidth": 10e3,
    }


def _round(value: float) -> float:
    return round(float(value), 6)

