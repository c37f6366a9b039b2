"""Declarative, seed-deterministic scenario model.

A :class:`ScenarioSpec` fully determines a city-scale CRN simulation:
node count and placement arena, RandomWaypoint mobility, per-class
traffic arrival processes, battery capacities, churn rates and CoMIMONet
clustering geometry.  All randomness in the runtime flows from ``seed``
through named `numpy` ``SeedSequence`` streams (see
:data:`STREAM_NAMES`), so two runs of an identical spec replay
bit-identically — the contract `/v1/simulate` exposes and CI's
``sim-smoke`` job asserts.

Specs parse from plain JSON mappings via :func:`scenario_from_mapping`
(strict: unknown keys are rejected) and serialise back with
:func:`scenario_to_mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.utils.rng import MAX_SEED
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
    coerce_field,
    parse_fields,
)

__all__ = [
    "MAX_CLUSTER_SIZE",
    "MAX_CONSTELLATION_B",
    "MAX_NODES",
    "MAX_PACKET_BITS",
    "STREAM_NAMES",
    "ChurnSpec",
    "ScenarioSpec",
    "TrafficClass",
    "scenario_from_mapping",
    "scenario_to_mapping",
]

#: Order of the per-subsystem ``SeedSequence`` streams spawned from
#: ``ScenarioSpec.seed``: stream *i* feeds the named subsystem and nothing
#: else, so e.g. adding churn draws cannot perturb mobility.
STREAM_NAMES: Tuple[str, ...] = ("placement", "mobility", "traffic", "churn")

# Upper bounds of the integer fields.  A JSON integer reaches a spec as it
# is, never through a float, so each field is bounded here before the
# runtime's float arithmetic sees it; ``seed`` is bounded by
# :data:`repro.utils.rng.MAX_SEED` (any unsigned 64-bit value).

#: ``n_nodes`` and ``churn.max_joins``: far past any population the
#: runtime can simulate (the service admits at most 5,000 starting nodes).
MAX_NODES = 1_000_000

#: ``max_cluster_size``: cooperating antennas per virtual array, the
#: service's ``mt``/``mr`` cap (four times the paper's 1-4 grid).
MAX_CLUSTER_SIZE = 16

#: ``constellation_b``: the top of the paper's ``b = 1-16`` search.
MAX_CONSTELLATION_B = 16

#: ``packet_bits``: a gigabit packet (the default is 4,000 bits).
MAX_PACKET_BITS = 10**9


@dataclass(frozen=True)
class TrafficClass:
    """A traffic endpoint class: Poisson arrivals of fixed-size packets.

    ``fraction`` of the node population belongs to this class (class
    membership is drawn per node from the placement stream); each member
    offers packets at ``rate_per_node_s`` with exponential inter-arrival
    times.
    """

    name: str = "cbr"
    rate_per_node_s: float = 0.5
    packet_bits: int = 4000
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ValueError(f"traffic class name must be an identifier, got {self.name!r}")
        check_positive(self.rate_per_node_s, "rate_per_node_s")
        check_positive_int(self.packet_bits, "packet_bits", MAX_PACKET_BITS)
        check_positive(self.fraction, "fraction")
        check_in_range(self.fraction, "fraction", 0.0, 1.0)


@dataclass(frozen=True)
class ChurnSpec:
    """Node join/leave dynamics.

    Each node departs after an exponential lifetime with rate
    ``leave_rate_per_node_s``; new nodes join as a global Poisson process
    of ``join_rate_per_s`` (capped at ``max_joins``).  Zero rates (the
    default) disable churn.
    """

    leave_rate_per_node_s: float = 0.0
    join_rate_per_s: float = 0.0
    max_joins: int = 10000

    def __post_init__(self) -> None:
        check_non_negative(self.leave_rate_per_node_s, "leave_rate_per_node_s")
        check_non_negative(self.join_rate_per_s, "join_rate_per_s")
        check_non_negative_int(self.max_joins, "max_joins", MAX_NODES)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, replayable city-scale CRN scenario."""

    # population & placement
    n_nodes: int = 100
    arena_m: Tuple[float, float] = (1000.0, 1000.0)
    seed: int = 0
    duration_s: float = 60.0
    # mobility (random waypoint)
    speed_range_mps: Tuple[float, float] = (0.5, 2.0)
    pause_s: float = 0.0
    mobility_step_s: float = 1.0
    # batteries (~0.02 J per packet per participant at the defaults, so
    # 25 J sustains ~1k participations — drain is visible but the network
    # survives a default-length run)
    battery_j: float = 25.0
    battery_jitter: float = 0.2
    # clustering geometry
    cluster_diameter_m: float = 60.0
    longhaul_range_m: float = 500.0
    max_cluster_size: int = 4
    backbone: str = "mst"
    recluster_interval_s: float = 10.0
    # physics (energy model inputs)
    target_ber: float = 1e-3
    constellation_b: int = 2
    bandwidth_hz: float = 10e3
    # workload
    traffic: Tuple[TrafficClass, ...] = (TrafficClass(),)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    # runtime
    snapshot_interval_s: float = 5.0

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes", MAX_NODES)
        if len(self.arena_m) != 2:
            raise ValueError("arena_m must be (width, height)")
        check_positive(self.arena_m[0], "arena_m[0]")
        check_positive(self.arena_m[1], "arena_m[1]")
        check_non_negative_int(self.seed, "seed", MAX_SEED)
        check_positive(self.duration_s, "duration_s")
        if len(self.speed_range_mps) != 2:
            raise ValueError("speed_range_mps must be (v_min, v_max)")
        v_min, v_max = self.speed_range_mps
        if not 0.0 < v_min <= v_max:
            raise ValueError("need 0 < v_min <= v_max")
        check_non_negative(self.pause_s, "pause_s")
        check_positive(self.mobility_step_s, "mobility_step_s")
        check_positive(self.battery_j, "battery_j")
        check_in_range(self.battery_jitter, "battery_jitter", 0.0, 0.999)
        check_positive(self.cluster_diameter_m, "cluster_diameter_m")
        check_positive(self.longhaul_range_m, "longhaul_range_m")
        check_positive_int(self.max_cluster_size, "max_cluster_size", MAX_CLUSTER_SIZE)
        if self.backbone not in ("mst", "bfs"):
            raise ValueError("backbone must be 'mst' or 'bfs'")
        check_positive(self.recluster_interval_s, "recluster_interval_s")
        check_probability(self.target_ber, "target_ber")
        check_positive_int(self.constellation_b, "constellation_b", MAX_CONSTELLATION_B)
        check_positive(self.bandwidth_hz, "bandwidth_hz")
        if not self.traffic:
            raise ValueError("need at least one traffic class")
        names = [t.name for t in self.traffic]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate traffic class names: {names}")
        total = sum(t.fraction for t in self.traffic)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"traffic class fractions must sum to 1, got {total}")
        check_positive(self.snapshot_interval_s, "snapshot_interval_s")


def _require_pair(value: Any, name: str) -> Tuple[float, float]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ValueError(f"{name} must be a [low, high] number pair")
    return (float(value[0]), float(value[1]))


_SCALAR_FIELDS: Dict[str, type] = {
    "n_nodes": int,
    "seed": int,
    "duration_s": float,
    "pause_s": float,
    "mobility_step_s": float,
    "battery_j": float,
    "battery_jitter": float,
    "cluster_diameter_m": float,
    "longhaul_range_m": float,
    "max_cluster_size": int,
    "backbone": str,
    "recluster_interval_s": float,
    "target_ber": float,
    "constellation_b": int,
    "bandwidth_hz": float,
    "snapshot_interval_s": float,
}

_TRAFFIC_FIELDS: Dict[str, type] = {
    "name": str,
    "rate_per_node_s": float,
    "packet_bits": int,
    "fraction": float,
}

_CHURN_FIELDS: Dict[str, type] = {
    "leave_rate_per_node_s": float,
    "join_rate_per_s": float,
    "max_joins": int,
}


def scenario_from_mapping(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a plain JSON-style mapping.

    Strict: unknown keys raise ``ValueError`` (the service maps this to
    a 400), as do type mismatches.  Missing keys take the dataclass
    defaults.
    """
    if not isinstance(data, Mapping):
        raise ValueError("scenario must be a JSON object")
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key in _SCALAR_FIELDS:
            kwargs[key] = coerce_field(value, _SCALAR_FIELDS[key], key)
        elif key == "arena_m":
            kwargs[key] = _require_pair(value, "arena_m")
        elif key == "speed_range_mps":
            kwargs[key] = _require_pair(value, "speed_range_mps")
        elif key == "traffic":
            if not isinstance(value, (list, tuple)):
                raise ValueError("traffic must be a list of class objects")
            classes: List[TrafficClass] = []
            for i, item in enumerate(value):
                if not isinstance(item, Mapping):
                    raise ValueError(f"traffic[{i}] must be an object")
                classes.append(
                    TrafficClass(**parse_fields(item, _TRAFFIC_FIELDS, f"traffic[{i}]"))
                )
            kwargs[key] = tuple(classes)
        elif key == "churn":
            if not isinstance(value, Mapping):
                raise ValueError("churn must be an object")
            kwargs[key] = ChurnSpec(**parse_fields(value, _CHURN_FIELDS, "churn"))
        else:
            raise ValueError(f"unknown scenario field: {key!r}")
    return ScenarioSpec(**kwargs)


def scenario_to_mapping(spec: ScenarioSpec) -> Dict[str, Any]:
    """Serialise a spec back to the JSON mapping form (round-trips)."""
    out: Dict[str, Any] = {name: getattr(spec, name) for name in _SCALAR_FIELDS}
    out["arena_m"] = list(spec.arena_m)
    out["speed_range_mps"] = list(spec.speed_range_mps)
    out["traffic"] = [
        {name: getattr(t, name) for name in _TRAFFIC_FIELDS} for t in spec.traffic
    ]
    out["churn"] = {name: getattr(spec.churn, name) for name in _CHURN_FIELDS}
    return out
