"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each benchmark times one side of an ablation and asserts the qualitative
outcome, so the ablation conclusions in EXPERIMENTS.md are continuously
re-verified alongside their cost.
"""

import numpy as np
import pytest

from repro.core.interweave import InterweaveSystem
from repro.core.overlay import OverlaySystem
from repro.core.schemes import hop_energy, hop_timing
from repro.core.underlay import UnderlaySystem
from repro.energy.model import EnergyModel
from repro.testbed.environment import table3_testbed


class TestConstellationOptimization:
    def test_optimized_b_vs_fixed_b2(self, benchmark, energy_model):
        """How much the Algorithms' b-selection step saves vs always-QPSK."""
        system = UnderlaySystem(energy_model)

        def optimized():
            return system.pa_energy(0.001, 2, 2, 1.0, 250.0, 10e3)

        res = benchmark(optimized)
        fixed = hop_energy(energy_model, 0.001, 2, 2, 2, 1.0, 250.0, 10e3).pa_total
        assert res.total_pa <= fixed + 1e-30


class TestEbarConvention:
    def test_paper_vs_diversity_only_overlay(self, benchmark):
        """The Figure 6 convention ablation: D3/D2 flips across conventions."""

        def both():
            out = {}
            for convention in ("paper", "diversity_only"):
                system = OverlaySystem(EnergyModel(ebar_convention=convention))
                res = system.distance_analysis(250.0, 3, 40e3)
                out[convention] = res.d3 / res.d2
            return out

        ratios = benchmark(both)
        assert ratios["paper"] < 1.0 < ratios["diversity_only"]


class TestCombiningAblation:
    @pytest.mark.parametrize("combining", ["egc", "mrc", "sc"])
    def test_multi_relay_combiner(self, benchmark, combining):
        testbed = table3_testbed()
        result = benchmark(
            testbed.run_relay_experiment,
            "tx",
            ["relay1", "relay2", "relay3"],
            "rx",
            30_000,
            None,
            True,
            combining,
            6,
        )
        assert result.ber < 0.15


class TestDeltaApproximation:
    def test_exact_vs_far_field_null(self, benchmark):
        """Residual interference of Algorithm 3's closed-form delta."""
        system = InterweaveSystem(st1=(0.0, 7.5), st2=(0.0, -7.5))

        def run():
            approx = system.run_table1(n_trials=5, rng=3, exact_delay=False)
            exact = system.run_table1(n_trials=5, rng=3, exact_delay=True)
            return (
                float(np.mean([t.residual_at_pr for t in approx])),
                float(np.mean([t.residual_at_pr for t in exact])),
            )

        resid_approx, resid_exact = benchmark(run)
        assert resid_exact < 1e-9 < resid_approx < 0.1


class TestEnergyLatencyTradeoff:
    def test_diversity_vs_airtime(self, benchmark, energy_model):
        """mt = 3 buys radiated-energy savings at a 2x+ airtime cost."""

        def tradeoff():
            siso_e = hop_energy(energy_model, 0.001, 1, 1, 1, 1.0, 200.0, 10e3)
            coop_e = hop_energy(energy_model, 0.001, 1, 3, 3, 1.0, 200.0, 10e3)
            siso_t = hop_timing(10_000, 1, 1, 1, 10e3)
            coop_t = hop_timing(10_000, 1, 3, 3, 10e3)
            return siso_e, coop_e, siso_t, coop_t

        siso_e, coop_e, siso_t, coop_t = benchmark(tradeoff)
        assert coop_e.pa_total < siso_e.pa_total / 5.0
        assert coop_t.total_s > 2.0 * siso_t.total_s
