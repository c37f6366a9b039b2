"""TrafficSpec model, arrival processes, plan determinism, fault-event bodies."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.loadgen.arrivals import arrival_offsets_s
from repro.loadgen.plan import build_plan
from repro.loadgen.presets import smoke_spec
from repro.loadgen.spec import (
    ENDPOINT_KINDS,
    ArrivalSpec,
    ClientPolicy,
    EndpointMix,
    FaultEvent,
    TrafficSpec,
    endpoint_route,
    traffic_from_mapping,
    traffic_to_mapping,
)
from repro.utils.rng import as_rng


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = TrafficSpec()
        assert spec.mix[0].kind == "ebar"

    def test_every_kind_routes(self):
        for kind in ENDPOINT_KINDS:
            method, path, stream = endpoint_route(kind)
            assert method in ("GET", "POST")
            assert path.startswith("/")
            assert isinstance(stream, bool)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown endpoint kind"):
            EndpointMix(kind="teleport")

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(ValueError, match="process"):
            ArrivalSpec(process="lognormal")

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrafficSpec(mix=(EndpointMix(), EndpointMix()))

    def test_unknown_fault_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultEvent(action="meteor_strike")

    def test_delay_fault_needs_duration(self):
        with pytest.raises(ValueError, match="delay_ms"):
            FaultEvent(action="delay", delay_ms=0.0)

    def test_retry_on_statuses_range_checked(self):
        with pytest.raises(ValueError):
            ClientPolicy(retry_on=(200,))


class TestClientPolicyBackoff:
    """The retry schedule: a server hint, else full jitter from ``rng``."""

    def test_seeded_schedule_is_reproducible(self):
        policy = ClientPolicy()
        first_rng, second_rng = as_rng(42), as_rng(42)
        first = [policy.backoff_s(k, None, first_rng) for k in range(4)]
        second = [policy.backoff_s(k, None, second_rng) for k in range(4)]
        assert first == second

    def test_schedule_matches_full_jitter_formula(self):
        policy = ClientPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=5.0)
        draws = as_rng(7)
        rng = as_rng(7)
        for attempt in range(8):
            cap = min(5.0, 0.1 * 2.0**attempt)
            assert policy.backoff_s(attempt, None, draws) == float(rng.uniform(0.0, cap))

    def test_delay_is_capped(self):
        policy = ClientPolicy(base_delay_s=1.0, multiplier=10.0, max_delay_s=2.0)
        rng = as_rng(3)
        for attempt in range(10):
            assert 0.0 <= policy.backoff_s(attempt, None, rng) <= 2.0

    def test_retry_after_overrides_the_jitter(self):
        policy = ClientPolicy()
        rng = as_rng(1)
        assert policy.backoff_s(0, 7.5, rng) == 7.5
        assert policy.backoff_s(3, 0.0, rng) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ClientPolicy(base_delay_s=0.0)
        with pytest.raises(ValueError):
            ClientPolicy().backoff_s(-1, None, as_rng(1))
        with pytest.raises(ValueError):
            ClientPolicy().backoff_s(0, -2.0, as_rng(1))


class TestMappingRoundTrip:
    def test_smoke_spec_round_trips(self):
        spec = smoke_spec(include_shard_kill=True)
        assert traffic_from_mapping(traffic_to_mapping(spec)) == spec

    def test_mapping_survives_json(self):
        spec = smoke_spec()
        blob = json.dumps(traffic_to_mapping(spec), sort_keys=True)
        assert traffic_from_mapping(json.loads(blob)) == spec

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic spec field"):
            traffic_from_mapping({"surprise": 1})

    def test_unknown_nested_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown mix"):
            traffic_from_mapping({"mix": [{"kind": "ebar", "extra": 1}]})
        with pytest.raises(ValueError, match="unknown client field"):
            traffic_from_mapping({"client": {"rps": 5}})
        with pytest.raises(ValueError, match="unknown faults"):
            traffic_from_mapping({"faults": [{"action": "abort", "when": 3}]})

    def test_type_mismatches_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            traffic_from_mapping({"seed": 1.5})
        for beyond_float in (float("inf"), float("nan"), 10**400, 2**64):
            with pytest.raises(ValueError, match="seed"):
                traffic_from_mapping({"seed": beyond_float})
        # Every unsigned 64-bit seed is exact, past float's 2**53 too.
        assert traffic_from_mapping({"seed": 2**63 - 1}).seed == 2**63 - 1
        with pytest.raises(ValueError, match="retry_on"):
            traffic_from_mapping({"client": {"retry_on": ["429"]}})


class TestArrivals:
    def _seq(self, n=7):
        return np.random.SeedSequence(n)

    @pytest.mark.parametrize("process", ["poisson", "bursty", "ramp"])
    def test_deterministic_and_sorted(self, process):
        arrival = ArrivalSpec(process=process, rate_per_s=20.0)
        a = arrival_offsets_s(arrival, 5.0, self._seq())
        b = arrival_offsets_s(arrival, 5.0, self._seq())
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0.0)
        assert a.size == 0 or (a[0] >= 0.0 and a[-1] < 5.0)

    def test_poisson_rate_is_roughly_right(self):
        arrival = ArrivalSpec(process="poisson", rate_per_s=50.0)
        times = arrival_offsets_s(arrival, 20.0, self._seq())
        assert 700 <= times.size <= 1300  # 1000 expected

    def test_bursty_respects_off_windows(self):
        arrival = ArrivalSpec(
            process="bursty", rate_per_s=40.0, burst_on_s=1.0, burst_off_s=1.0
        )
        times = arrival_offsets_s(arrival, 10.0, self._seq())
        phase = np.mod(times, 2.0)
        assert np.all(phase < 1.0)  # nothing lands in an off window
        assert times.size > 0

    def test_ramp_grows_over_the_run(self):
        arrival = ArrivalSpec(process="ramp", rate_per_s=30.0, ramp_factor=5.0)
        times = arrival_offsets_s(arrival, 20.0, self._seq())
        first_half = int(np.sum(times < 10.0))
        second_half = int(np.sum(times >= 10.0))
        assert second_half > first_half

    def test_different_seeds_differ(self):
        arrival = ArrivalSpec(rate_per_s=20.0)
        a = arrival_offsets_s(arrival, 5.0, np.random.SeedSequence(1))
        b = arrival_offsets_s(arrival, 5.0, np.random.SeedSequence(2))
        assert not np.array_equal(a, b)


class TestPlan:
    def test_plan_is_deterministic(self):
        spec = smoke_spec()
        assert build_plan(spec) == build_plan(spec)

    def test_plan_indexes_and_order(self):
        plan = build_plan(smoke_spec())
        assert [r.index for r in plan] == list(range(len(plan)))
        sends = [r.t_send_s for r in plan]
        assert sends == sorted(sends)

    def test_plan_covers_every_mix_kind(self):
        spec = smoke_spec()
        kinds = {r.kind for r in build_plan(spec)}
        assert kinds == {m.kind for m in spec.mix}

    def test_bodies_are_json_and_digested(self):
        for request in build_plan(smoke_spec()):
            if request.body is not None:
                json.dumps(request.body)  # must be plain JSON
            assert len(request.payload_digest) == 64

    def test_adding_a_mix_entry_preserves_other_streams(self):
        base = smoke_spec()
        extended = TrafficSpec(
            seed=base.seed,
            duration_s=base.duration_s,
            mix=base.mix + (EndpointMix(kind="simulate"),),
            client=base.client,
            faults=base.faults,
        )
        base_bodies = [
            (r.kind, r.t_send_s, r.payload_digest) for r in build_plan(base)
        ]
        extended_bodies = [
            (r.kind, r.t_send_s, r.payload_digest)
            for r in build_plan(extended)
            if r.kind != "simulate"
        ]
        assert base_bodies == extended_bodies

    def test_seed_changes_the_plan(self):
        a = build_plan(smoke_spec(seed=1))
        b = build_plan(smoke_spec(seed=2))
        assert [r.payload_digest for r in a] != [r.payload_digest for r in b]


class TestFaultEventBodies:
    def test_smoke_plan_events_parse_as_route_bodies(self):
        """What the runner POSTs is what ``/chaos/faults`` arms."""
        from repro.service.faults import CHAOS_FAULTS_PATH, parse_fault_request

        for event in smoke_spec(include_shard_kill=True).faults:
            body = json.dumps(asdict(event.request())).encode()
            parsed = parse_fault_request(True, "POST", CHAOS_FAULTS_PATH, body)
            assert parsed == event.request()
            assert parsed.action == event.action
