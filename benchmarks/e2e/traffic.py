"""The benchmark's own traffic model: seeded schedules and request bodies.

Everything the server receives is built here from the workload seed, and
nothing here imports :mod:`repro.loadgen`, so a change to the chaos load
generator cannot change what this benchmark sends.  The same
``(workload, seed, seconds)`` always yields byte-identical requests.

Workloads (see README.md for why each exists):

* ``plan-unique`` — open loop, Poisson 100 req/s; scalar requests, every
  body distinct: 40% ``/v1/ebar`` table lookups, 20% each overlay,
  underlay and interweave.  Result-cache misses, coalescer, loop kernels.
* ``plan-repeat`` — open loop, Poisson 200 req/s over a fixed 808-body
  working set that an untimed pass has already cached: every timed
  request is a result-cache hit.
* ``plan-sweep`` — open loop, Poisson 20 req/s; 64-point overlay and
  underlay sweeps, half buffered and half streamed as NDJSON.
* ``sim-city`` — closed loop, one connection: streamed 500-node
  ``/v1/simulate`` scenarios back to back, scenario *i* seeded ``seed + i``.
"""

import json
import math
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.utils.rng import as_rng, keyed_seed_sequence, spawn_seed_sequences

WORKLOADS: Tuple[str, ...] = ("plan-unique", "plan-repeat", "plan-sweep", "sim-city")

PATHS: Dict[str, str] = {
    "healthz": "/healthz",
    "metrics": "/metrics",
    "ebar": "/v1/ebar",
    "overlay": "/v1/overlay/feasible",
    "underlay": "/v1/underlay/energy",
    "interweave": "/v1/interweave/pattern",
    "overlay_sweep": "/v1/overlay/feasible",
    "underlay_sweep": "/v1/underlay/energy",
    "simulate": "/v1/simulate",
}

#: Open-loop arrival rates [requests/s].
RATES: Dict[str, float] = {"plan-unique": 100.0, "plan-repeat": 200.0, "plan-sweep": 20.0}
#: ``GET /healthz`` calibration rate [requests/s].
CALIBRATION_RATE_PER_S = 200.0

#: Scalar kinds and their shares of plan-unique / plan-repeat traffic.
SCALAR_MIX: Tuple[Tuple[str, float], ...] = (
    ("ebar", 0.4),
    ("overlay", 0.2),
    ("underlay", 0.2),
    ("interweave", 0.2),
)

#: (mt, mr) antenna pairs of the default e_bar table.
EBAR_ANTENNAS: Tuple[Tuple[int, int], ...] = ((1, 1), (2, 2), (2, 3), (4, 4))
#: The default table's BER grid (the plan-repeat working set uses it as is).
EBAR_P_GRID: Tuple[float, ...] = (0.1, 0.05, 0.01, 0.005, 0.001, 0.0005)

SWEEP_POINTS = 64
SWEEP_STEP_M = 0.5


class Request(NamedTuple):
    """One request of a schedule; ``due_s`` is its offset from the start."""

    index: int
    due_s: float
    kind: str
    body: bytes
    stream: bool

    @property
    def path(self) -> str:
        return PATHS[self.kind]

    @property
    def method(self) -> str:
        return "POST" if self.body else "GET"


def encode(body: object) -> bytes:
    """Canonical compact JSON; equal bodies are equal bytes."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


# --------------------------------------------------------------------- #
# Bodies                                                                #
# --------------------------------------------------------------------- #


def ebar_body(p: float, b: int, mt: int, mr: int) -> Dict[str, object]:
    return {"p": p, "b": b, "mt": mt, "mr": mr, "solver": "table"}


def overlay_body(d1: object, m: int) -> Dict[str, object]:
    return {"d1": d1, "m": m, "bandwidth": 10e3}


def underlay_body(distance: object) -> Dict[str, object]:
    return {"p": 1e-3, "mt": 2, "mr": 2, "d": 5.0, "distance": distance, "bandwidth": 10e3}


def interweave_body(angle_rad: float) -> Dict[str, object]:
    return {
        "st1": [0.0, 0.0],
        "st2": [15.0, 0.0],
        "wavelength": 30.0,
        "point": [300.0 * math.cos(angle_rad), 300.0 * math.sin(angle_rad)],
        "pr": [100.0, 0.0],
    }


def sweep_axis(start: float) -> List[float]:
    return [start + SWEEP_STEP_M * k for k in range(SWEEP_POINTS)]


def scenario_body(seed: int, i: int, smoke: bool = False) -> Dict[str, object]:
    """Scenario *i* of a sim-city run; ``kernel`` is left to the default."""
    return {
        "n_nodes": 60 if smoke else 500,
        "arena_m": [800.0, 800.0],
        "duration_s": 10.0 if smoke else 60.0,
        "snapshot_interval_s": 5.0,
        "seed": seed + i,
        "churn": {"leave_rate_per_node_s": 0.002, "join_rate_per_s": 0.5},
    }


def _unique_body(kind: str, rng: np.random.Generator) -> Dict[str, object]:
    """Continuous parameters: two draws never repeat a body in practice."""
    if kind == "ebar":
        mt, mr = EBAR_ANTENNAS[int(rng.integers(len(EBAR_ANTENNAS)))]
        p = math.exp(rng.uniform(math.log(5e-4), math.log(0.1)))
        return ebar_body(p, int(rng.integers(1, 17)), mt, mr)
    if kind == "overlay":
        return overlay_body(float(rng.uniform(10.0, 85.0)), int(rng.integers(2, 4)))
    if kind == "underlay":
        return underlay_body(float(rng.uniform(30.0, 90.0)))
    if kind == "interweave":
        return interweave_body(float(rng.uniform(0.0, 2.0 * math.pi)))
    if kind == "overlay_sweep":
        return overlay_body(sweep_axis(float(rng.uniform(15.0, 40.0))), int(rng.integers(2, 4)))
    if kind == "underlay_sweep":
        return underlay_body(sweep_axis(float(rng.uniform(35.0, 60.0))))
    raise ValueError(f"no sampler for kind {kind!r}")


def repeat_working_set() -> Dict[str, List[bytes]]:
    """The plan-repeat bodies, per kind: 384 + 240 + 120 + 64 = 808."""
    return {
        "ebar": [
            encode(ebar_body(p, b, mt, mr))
            for p in EBAR_P_GRID
            for b in range(1, 17)
            for mt, mr in EBAR_ANTENNAS
        ],
        "overlay": [
            encode(overlay_body(round(10.0 + 0.625 * k, 6), m))
            for k in range(120)
            for m in (2, 3)
        ],
        "underlay": [encode(underlay_body(round(30.0 + 0.5 * k, 6))) for k in range(120)],
        "interweave": [encode(interweave_body(2.0 * math.pi * k / 64.0)) for k in range(64)],
    }


def warmup(workload: str) -> List[Request]:
    """One untimed request per kind, with bodies outside every timed set
    (off the plan-repeat grids; the unique samplers never hit a fixed value)."""
    if workload == "sim-city":
        return []
    if workload == "plan-sweep":
        kinds = [
            ("overlay_sweep", overlay_body(sweep_axis(20.3), 2), False),
            ("overlay_sweep", overlay_body(sweep_axis(21.3), 3), True),
            ("underlay_sweep", underlay_body(sweep_axis(40.3)), False),
            ("underlay_sweep", underlay_body(sweep_axis(41.3)), True),
        ]
    else:
        kinds = [
            ("ebar", ebar_body(0.0123, 3, 2, 2), False),
            ("overlay", overlay_body(47.3, 2), False),
            ("underlay", underlay_body(60.3), False),
            ("interweave", interweave_body(1.0), False),
        ]
    return [
        Request(index=i, due_s=0.0, kind=kind, body=encode(body), stream=stream)
        for i, (kind, body, stream) in enumerate(kinds)
    ]


# --------------------------------------------------------------------- #
# Schedules                                                             #
# --------------------------------------------------------------------- #


def _streams(workload: str, seed: int) -> List[np.random.Generator]:
    """Independent arrival / kind / body streams for one (workload, seed)."""
    root = keyed_seed_sequence(seed, WORKLOADS.index(workload))
    return [as_rng(child) for child in spawn_seed_sequences(root, 3)]


def _poisson_offsets(rng: np.random.Generator, rate_per_s: float, seconds: float) -> List[float]:
    offsets: List[float] = []
    t = float(rng.exponential(1.0 / rate_per_s))
    while t < seconds:
        offsets.append(t)
        t += float(rng.exponential(1.0 / rate_per_s))
    return offsets


def schedule(workload: str, seed: int, seconds: float) -> List[Request]:
    """The open-loop schedule of a plan workload (sim-city has none)."""
    if workload not in WORKLOADS or workload == "sim-city":
        raise ValueError(f"{workload!r} has no open-loop schedule")
    arrivals, kinds, bodies = _streams(workload, seed)
    sweep = workload == "plan-sweep"
    offsets = _poisson_offsets(arrivals, RATES[workload], seconds)
    names = [name for name, _ in SCALAR_MIX]
    shares = [share for _, share in SCALAR_MIX]
    working_set = repeat_working_set() if workload == "plan-repeat" else {}
    seen = {request.body for request in warmup(workload)}
    out: List[Request] = []
    for index, due_s in enumerate(offsets):
        stream = False
        if sweep:
            kind = "overlay_sweep" if kinds.random() < 0.5 else "underlay_sweep"
            stream = bool(kinds.random() < 0.5)
        else:
            kind = names[int(kinds.choice(len(names), p=shares))]
        if working_set:
            pool = working_set[kind]
            body = pool[int(bodies.integers(len(pool)))]
        else:
            body = encode(_unique_body(kind, bodies))
            while body in seen:
                body = encode(_unique_body(kind, bodies))
            seen.add(body)
        out.append(Request(index=index, due_s=due_s, kind=kind, body=body, stream=stream))
    return out


def calibration(seed: int, seconds: float) -> List[Request]:
    """``GET /healthz`` at 200 req/s: the generator's own floor."""
    root = keyed_seed_sequence(seed, len(WORKLOADS))
    offsets = _poisson_offsets(as_rng(root), CALIBRATION_RATE_PER_S, seconds)
    return [
        Request(index=i, due_s=t, kind="healthz", body=b"", stream=False)
        for i, t in enumerate(offsets)
    ]
