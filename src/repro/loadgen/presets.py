"""The canned traffic spec: the CI smoke plan.

:func:`smoke_spec` is the ``chaos-replay`` plan — every endpoint kind, all
stream-aware fault actions, retry-enabled client policy so fault-hit
requests converge to the clean outcome and the trace digest is independent
of which in-flight request drew a count-armed fault.
"""

from __future__ import annotations

from repro.loadgen.spec import (
    ArrivalSpec,
    ClientPolicy,
    EndpointMix,
    FaultEvent,
    TrafficSpec,
)

__all__ = ["smoke_spec"]


def smoke_spec(
    seed: int = 2026,
    duration_s: float = 4.0,
    include_shard_kill: bool = False,
) -> TrafficSpec:
    """The chaos smoke plan: all endpoints, all stream-aware faults.

    ``include_shard_kill`` adds a scheduled ``kill_shard`` event — only
    deliverable through a shard supervisor's admin port (CI's
    ``chaos-replay`` job); a single server refuses it, so in-process
    single-server tests leave it off.
    """
    faults = [
        FaultEvent(action="kill_worker", at_request=8),
        FaultEvent(
            action="truncate_stream",
            at_request=16,
            after_rows=1,
            path="/v1/underlay/energy",
        ),
        FaultEvent(action="kill_sim_child", at_request=24, after_rows=1),
        FaultEvent(action="stall_sim", at_request=32),
        FaultEvent(action="drop_client", at_request=40, path="/v1/ebar"),
    ]
    if include_shard_kill:
        faults.append(FaultEvent(action="kill_shard", at_request=12))
    return TrafficSpec(
        seed=seed,
        duration_s=duration_s,
        mix=(
            EndpointMix(kind="healthz", arrival=ArrivalSpec(rate_per_s=1.0)),
            EndpointMix(kind="metrics", arrival=ArrivalSpec(rate_per_s=0.5)),
            EndpointMix(kind="ebar", arrival=ArrivalSpec(rate_per_s=5.0)),
            EndpointMix(kind="overlay", arrival=ArrivalSpec(rate_per_s=2.0)),
            EndpointMix(
                kind="overlay_stream",
                arrival=ArrivalSpec(process="bursty", rate_per_s=1.0),
                sweep_points=6,
            ),
            EndpointMix(kind="underlay", arrival=ArrivalSpec(rate_per_s=2.0)),
            EndpointMix(
                kind="underlay_stream",
                arrival=ArrivalSpec(rate_per_s=1.5),
                sweep_points=6,
            ),
            EndpointMix(kind="interweave", arrival=ArrivalSpec(rate_per_s=1.5)),
            EndpointMix(
                kind="simulate_stream",
                arrival=ArrivalSpec(process="ramp", rate_per_s=0.75),
                sim_nodes=8,
                sim_duration_s=2.0,
                sim_snapshot_s=0.5,
            ),
        ),
        client=ClientPolicy(
            # Tight deadline for a ~4 s plan: a genuinely hung request
            # surfaces (and retries) fast instead of stalling CI.
            timeout_s=10.0,
            # The retry budget must cover the fleet-wide worst case, not
            # the per-event counts: the supervisor forwards each event to
            # every live shard, so against CI's 2-shard fleet one unlucky
            # /v1/simulate request can serially draw all four armed sim
            # faults (stall x2, kill x2) before its first clean attempt.
            # Six attempts leave one to spare.
            max_attempts=6,
            base_delay_s=0.05,
            max_delay_s=0.5,
        ),
        faults=tuple(faults),
        max_concurrency=8,
    )
