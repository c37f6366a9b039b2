"""Deterministic chaos load generator for the planning service.

The chaos harness as one declarative tool:

* :mod:`repro.loadgen.spec` — the :class:`~repro.loadgen.spec.TrafficSpec`
  model: per-endpoint arrival processes, request mixes over every service
  route (streamed NDJSON variants included), client retry policy, and a
  timed fault plan;
* :mod:`repro.loadgen.arrivals` / :mod:`repro.loadgen.plan` — seeded
  expansion into a concrete, replayable request plan;
* :mod:`repro.loadgen.runner` — the asyncio open-loop executor; it
  delivers each fault event through the target's ``POST /chaos/faults``;
* :mod:`repro.loadgen.trace` — the canonical trace and its deterministic
  outcome digest (record/replay, bit-identical);
* :mod:`repro.loadgen.verdict` — the machine-checked
  every-request-accounted-for invariant;
* :mod:`repro.loadgen.presets` — the CI smoke plan;
* :mod:`repro.loadgen.cli` — ``python -m repro.loadgen`` (run / replay /
  verify / plan).
"""

from repro.loadgen.plan import PlannedRequest, build_plan
from repro.loadgen.presets import smoke_spec
from repro.loadgen.runner import run_plan
from repro.loadgen.spec import (
    ENDPOINT_KINDS,
    FAULT_ACTIONS,
    ArrivalSpec,
    ClientPolicy,
    EndpointMix,
    FaultEvent,
    TrafficSpec,
    endpoint_route,
    traffic_from_mapping,
    traffic_to_mapping,
)
from repro.loadgen.trace import (
    RequestRecord,
    Trace,
    load_trace,
    outcome_digest,
    summarize_latencies,
)
from repro.loadgen.verdict import OUTCOMES, Verdict, classify, evaluate

__all__ = [
    "ENDPOINT_KINDS",
    "FAULT_ACTIONS",
    "OUTCOMES",
    "ArrivalSpec",
    "ClientPolicy",
    "EndpointMix",
    "FaultEvent",
    "PlannedRequest",
    "RequestRecord",
    "Trace",
    "TrafficSpec",
    "Verdict",
    "build_plan",
    "classify",
    "endpoint_route",
    "evaluate",
    "load_trace",
    "outcome_digest",
    "run_plan",
    "smoke_spec",
    "summarize_latencies",
    "traffic_from_mapping",
    "traffic_to_mapping",
]
