"""Scenario-spec tests: parsing strictness, validation, round-trips."""

import pytest

from repro.scenario.spec import (
    STREAM_NAMES,
    ChurnSpec,
    ScenarioSpec,
    TrafficClass,
    scenario_from_mapping,
    scenario_to_mapping,
)


class TestDefaults:
    def test_default_spec_valid(self):
        spec = ScenarioSpec()
        assert spec.n_nodes == 100

    def test_stream_names_fixed(self):
        assert STREAM_NAMES == ("placement", "mobility", "traffic", "churn")


class TestValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_nodes=0)
        with pytest.raises(ValueError):
            ScenarioSpec(max_cluster_size=0)

    def test_rejects_bad_arena(self):
        with pytest.raises(ValueError):
            ScenarioSpec(arena_m=(0.0, 100.0))
        with pytest.raises(ValueError):
            ScenarioSpec(arena_m=(100.0,))

    def test_rejects_bad_speed_range(self):
        with pytest.raises(ValueError):
            ScenarioSpec(speed_range_mps=(2.0, 1.0))
        with pytest.raises(ValueError):
            ScenarioSpec(speed_range_mps=(0.0, 1.0))

    def test_rejects_bad_kernel_and_backbone(self):
        with pytest.raises(TypeError):
            ScenarioSpec(kernel="heap")  # one event kernel, no knob
        with pytest.raises(ValueError):
            ScenarioSpec(backbone="ring")

    def test_traffic_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                traffic=(
                    TrafficClass(name="a", fraction=0.5),
                    TrafficClass(name="b", fraction=0.2),
                )
            )

    def test_traffic_names_unique(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                traffic=(
                    TrafficClass(name="a", fraction=0.5),
                    TrafficClass(name="a", fraction=0.5),
                )
            )

    def test_traffic_class_validation(self):
        with pytest.raises(ValueError):
            TrafficClass(name="not an identifier")
        with pytest.raises(ValueError):
            TrafficClass(rate_per_node_s=0.0)
        with pytest.raises(ValueError):
            TrafficClass(fraction=0.0)
        with pytest.raises(ValueError):
            TrafficClass(fraction=1.5)

    def test_churn_validation(self):
        ChurnSpec()  # zero rates are fine
        with pytest.raises(ValueError):
            ChurnSpec(leave_rate_per_node_s=-0.1)
        with pytest.raises(ValueError):
            ChurnSpec(max_joins=-1)

    def test_battery_jitter_range(self):
        ScenarioSpec(battery_jitter=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(battery_jitter=1.0)


class TestParsing:
    def test_empty_mapping_gives_defaults(self):
        assert scenario_from_mapping({}) == ScenarioSpec()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            scenario_from_mapping({"nodes": 10})
        with pytest.raises(ValueError, match="unknown scenario field"):
            scenario_from_mapping({"kernel": "heap"})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="unknown churn field"):
            scenario_from_mapping({"churn": {"rate": 1.0}})
        with pytest.raises(ValueError, match="unknown traffic"):
            scenario_from_mapping({"traffic": [{"name": "x", "kbps": 1}]})

    def test_type_strictness(self):
        with pytest.raises(ValueError):
            scenario_from_mapping({"n_nodes": 10.5})
        with pytest.raises(ValueError):
            scenario_from_mapping({"n_nodes": True})
        with pytest.raises(ValueError):
            scenario_from_mapping({"backbone": 3})
        with pytest.raises(ValueError):
            scenario_from_mapping({"duration_s": "60"})
        # Numbers beyond float range: inf/NaN in an integer field, and an
        # integer literal no float can hold.
        for body in (
            {"n_nodes": float("inf")},
            {"seed": float("-inf")},
            {"seed": float("nan")},
            {"churn": {"max_joins": float("inf")}},
            {"traffic": [{"name": "cbr", "packet_bits": float("inf")}]},
            {"n_nodes": 10**400},
            {"duration_s": 10**400},
            {"seed": 2**64},
        ):
            with pytest.raises(ValueError):
                scenario_from_mapping(body)
        # Every unsigned 64-bit seed is exact, past float's 2**53 too.
        assert scenario_from_mapping({"n_nodes": 10, "seed": 2**63 - 1}).seed == 2**63 - 1

    def test_pair_fields(self):
        spec = scenario_from_mapping({"arena_m": [500, 250]})
        assert spec.arena_m == (500.0, 250.0)
        with pytest.raises(ValueError):
            scenario_from_mapping({"arena_m": [500.0]})
        with pytest.raises(ValueError):
            scenario_from_mapping({"speed_range_mps": "fast"})

    def test_not_a_mapping_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_mapping([1, 2, 3])

    def test_nested_parse(self):
        spec = scenario_from_mapping(
            {
                "n_nodes": 12,
                "traffic": [
                    {"name": "cbr", "fraction": 0.75},
                    {"name": "bursty", "fraction": 0.25, "packet_bits": 16000},
                ],
                "churn": {"leave_rate_per_node_s": 0.01, "join_rate_per_s": 0.5},
            }
        )
        assert spec.traffic[1].packet_bits == 16000
        assert spec.churn.join_rate_per_s == 0.5

    def test_intlike_floats_accepted(self):
        assert scenario_from_mapping({"n_nodes": 10.0}).n_nodes == 10


class TestRoundTrip:
    def test_default_round_trips(self):
        spec = ScenarioSpec()
        assert scenario_from_mapping(scenario_to_mapping(spec)) == spec

    def test_custom_round_trips(self):
        spec = ScenarioSpec(
            n_nodes=500,
            arena_m=(2000.0, 1500.0),
            seed=42,
            duration_s=120.0,
            pause_s=2.0,
            battery_j=5.0,
            backbone="bfs",
            traffic=(
                TrafficClass(name="a", fraction=0.5),
                TrafficClass(name="b", fraction=0.5, rate_per_node_s=2.0),
            ),
            churn=ChurnSpec(leave_rate_per_node_s=0.01, join_rate_per_s=1.0),
        )
        mapping = scenario_to_mapping(spec)
        assert scenario_from_mapping(mapping) == spec

    def test_mapping_is_json_friendly(self):
        import json

        json.dumps(scenario_to_mapping(ScenarioSpec()))
