import json

import pytest
import traffic


@pytest.mark.parametrize("workload", ["plan-unique", "plan-repeat", "plan-sweep"])
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = traffic.schedule(workload, 2026, 3.0)
    again = traffic.schedule(workload, 2026, 3.0)
    other = traffic.schedule(workload, 2027, 3.0)
    assert first == again
    assert [r.due_s for r in first] != [r.due_s for r in other]
    assert [r.body for r in first] != [r.body for r in other]


def test_workloads_with_one_seed_differ():
    unique = traffic.schedule("plan-unique", 2026, 1.0)
    repeat = traffic.schedule("plan-repeat", 2026, 1.0)
    assert [r.due_s for r in unique] != [r.due_s for r in repeat]


def test_plan_unique_bodies_are_distinct_and_mixed():
    requests = traffic.schedule("plan-unique", 5, 10.0)
    bodies = [r.body for r in requests]
    assert len(set(bodies)) == len(bodies)
    assert not set(bodies) & {r.body for r in traffic.warmup("plan-unique")}
    kinds = {kind: sum(r.kind == kind for r in requests) for kind, _ in traffic.SCALAR_MIX}
    for kind, share in traffic.SCALAR_MIX:
        assert abs(kinds[kind] / len(requests) - share) < 0.05
    # Poisson at 100 req/s over 10 s.
    assert 900 < len(requests) < 1100
    assert all(0.0 <= r.due_s < 10.0 for r in requests)


def test_plan_repeat_draws_only_from_the_working_set():
    working = traffic.repeat_working_set()
    assert {kind: len(bodies) for kind, bodies in working.items()} == {
        "ebar": 384, "overlay": 240, "underlay": 120, "interweave": 64}
    everything = {body for bodies in working.values() for body in bodies}
    assert len(everything) == 808
    requests = traffic.schedule("plan-repeat", 9, 5.0)
    assert {r.body for r in requests} <= everything
    assert not everything & {r.body for r in traffic.warmup("plan-repeat")}


def test_plan_sweep_is_half_streamed_64_point_axes():
    requests = traffic.schedule("plan-sweep", 3, 30.0)
    assert 450 < len(requests) < 750
    assert 0.4 < sum(r.stream for r in requests) / len(requests) < 0.6
    for request in requests:
        body = json.loads(request.body)
        axis = body["d1"] if request.kind == "overlay_sweep" else body["distance"]
        assert len(axis) == 64
        assert axis[1] - axis[0] == pytest.approx(0.5)


def test_scenarios_are_seeded_per_index_and_leave_the_kernel_unset():
    assert traffic.scenario_body(40, 3)["seed"] == 43
    assert "kernel" not in traffic.scenario_body(40, 0)


def test_calibration_is_healthz_at_200_per_s():
    requests = traffic.calibration(1, 5.0)
    assert {r.path for r in requests} == {"/healthz"}
    assert 850 < len(requests) < 1150
