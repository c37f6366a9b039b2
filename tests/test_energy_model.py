"""Energy model tests: formulas (1)-(4), splits, distance inversion."""

import numpy as np
import pytest

from repro.constants import PAPER_CONSTANTS
from repro.energy.ebar import solve_ebar
from repro.energy.model import B_VECTOR_MEMO_SIZE, EnergyModel


class TestLocalTx:
    def test_pa_formula_by_hand(self, energy_model):
        """Recompute e_PA^{Lt} of formula (1) from raw constants."""
        p, b, d = 0.001, 2, 4.0
        c = PAPER_CONSTANTS
        alpha = c.peak_to_average_alpha(b)
        expected = (
            (4.0 / 3.0)
            * (1 + alpha)
            * (2**b - 1)
            / b
            * np.log(4 * (1 - 2 ** (-b / 2)) / (b * p))
            * (0.01 * d**3.5 * 1e4)
            * 10.0
            * c.sigma2_w_hz
        )
        got = energy_model.local_tx(p, b, d, 10e3)
        assert got.pa == pytest.approx(expected)

    def test_circuit_formula(self, energy_model):
        got = energy_model.local_tx(0.001, 2, 1.0, 10e3)
        expected = 0.04864 / (2 * 10e3) + 0.05 * 5e-6 / energy_model.packet_bits
        assert got.circuit == pytest.approx(expected)

    def test_grows_with_distance(self, energy_model):
        e1 = energy_model.local_tx(0.001, 2, 1.0, 10e3).pa
        e16 = energy_model.local_tx(0.001, 2, 16.0, 10e3).pa
        assert e16 == pytest.approx(e1 * 16**3.5, rel=1e-9)

    def test_stricter_ber_costs_more(self, energy_model):
        lax = energy_model.local_tx(0.01, 2, 2.0, 10e3).pa
        strict = energy_model.local_tx(0.0001, 2, 2.0, 10e3).pa
        assert strict > lax

    def test_lax_target_infeasible(self, energy_model):
        # ln argument <= 1 for p close to the constellation ceiling:
        # 4 (1 - 2^{-b/2}) / (b p) = 0.83 < 1 at b = 4, p = 0.9
        with pytest.raises(ValueError):
            energy_model.local_tx(0.9, 4, 2.0, 10e3)


class TestLocalRx:
    def test_circuit_only(self, energy_model):
        got = energy_model.local_rx(2, 10e3)
        assert got.pa == 0.0
        expected = 0.0625 / (2 * 10e3) + 0.05 * 5e-6 / energy_model.packet_bits
        assert got.circuit == pytest.approx(expected)

    def test_longhaul_reception_cheaper_than_transmission(self, energy_model):
        """Transmission needs more energy than reception (the Section 6.1
        explanation for D3 > D2) — true on the long haul where the PA
        dominates.  (Locally the paper's P_cr exceeds P_ct, so the claim is
        a long-haul statement.)"""
        rx = energy_model.mimo_rx(2, 10e3).total
        tx = energy_model.mimo_tx(0.001, 2, 1, 1, 200.0, 10e3).total
        assert rx < tx / 5.0


class TestMimoTx:
    def test_formula_by_hand(self, energy_model):
        p, b, mt, mr, dist, bw = 0.001, 2, 2, 3, 150.0, 10e3
        c = PAPER_CONSTANTS
        alpha = c.peak_to_average_alpha(b)
        ebar = solve_ebar(p, b, mt, mr, n0=c.n0_w_hz)
        expected_pa = (1.0 / mt) * (1 + alpha) * ebar * c.longhaul_gain(dist)
        got = energy_model.mimo_tx(p, b, mt, mr, dist, bw)
        assert got.pa == pytest.approx(expected_pa)
        assert got.circuit == pytest.approx((0.04864 + 0.05) / (2 * 10e3))

    def test_quadratic_in_distance(self, energy_model):
        e100 = energy_model.mimo_tx(0.001, 2, 2, 2, 100.0, 10e3).pa
        e300 = energy_model.mimo_tx(0.001, 2, 2, 2, 300.0, 10e3).pa
        assert e300 == pytest.approx(9.0 * e100, rel=1e-9)

    def test_diversity_saves_energy(self, energy_model):
        siso = energy_model.mimo_tx(0.001, 2, 1, 1, 200.0, 10e3).pa
        mimo = energy_model.mimo_tx(0.001, 2, 2, 3, 200.0, 10e3).pa
        assert mimo < siso / 10.0

    def test_bandwidth_only_affects_circuit(self, energy_model):
        lo = energy_model.mimo_tx(0.001, 2, 2, 2, 200.0, 10e3)
        hi = energy_model.mimo_tx(0.001, 2, 2, 2, 200.0, 100e3)
        assert lo.pa == hi.pa
        assert lo.circuit == pytest.approx(10.0 * hi.circuit)


class TestMimoRx:
    def test_formula(self, energy_model):
        got = energy_model.mimo_rx(4, 20e3)
        assert got.pa == 0.0
        assert got.circuit == pytest.approx((0.0625 + 0.05) / (4 * 20e3))


class TestBreakdown:
    def test_total_is_sum(self, energy_model):
        e = energy_model.local_tx(0.001, 2, 3.0, 10e3)
        assert e.total == pytest.approx(e.pa + e.circuit)


class TestDistanceInversion:
    def test_roundtrip(self, energy_model):
        """max_mimo_distance inverts mimo_tx exactly."""
        p, b, mt, mr, bw = 0.001, 2, 3, 1, 10e3
        d_true = 173.2
        budget = energy_model.mimo_tx(p, b, mt, mr, d_true, bw).total
        got = energy_model.max_mimo_distance(budget, p, b, mt, mr, bw)
        assert got == pytest.approx(d_true, rel=1e-9)

    def test_extra_circuit_shrinks_distance(self, energy_model):
        budget = 1e-5
        base = energy_model.max_mimo_distance(budget, 0.001, 2, 2, 1, 10e3)
        loaded = energy_model.max_mimo_distance(
            budget, 0.001, 2, 2, 1, 10e3, extra_circuit=budget / 2
        )
        assert loaded < base

    def test_infeasible_budget_gives_zero(self, energy_model):
        tiny = 1e-12  # below the circuit energy at 10 kHz
        assert energy_model.max_mimo_distance(tiny, 0.001, 2, 2, 1, 10e3) == 0.0

    def test_negative_extra_rejected(self, energy_model):
        with pytest.raises(ValueError):
            energy_model.max_mimo_distance(1e-5, 0.001, 2, 2, 1, 10e3, extra_circuit=-1.0)


class TestProviderPlumbing:
    def test_custom_provider_used(self):
        calls = []

        def provider(p, b, mt, mr):
            calls.append((p, b, mt, mr))
            return 1e-19

        model = EnergyModel(ebar_provider=provider)
        model.mimo_tx(0.001, 2, 2, 3, 100.0, 10e3)
        assert calls == [(0.001, 2, 2, 3)]

    def test_ebar_memo_is_bounded(self):
        """A long-lived model keeps the newest keys and re-solves the oldest."""
        calls = []

        def provider(p, b, mt, mr):
            calls.append((p, b, mt, mr))
            return 1e-19

        model = EnergyModel(ebar_provider=provider)
        keys = [(1e-3 * (1.0 + k / 8192.0), 2, 2, 3) for k in range(B_VECTOR_MEMO_SIZE + 1)]
        for key in keys:
            model.ebar(*key)
        assert len(calls) == len(keys)
        model.ebar(*keys[-1])
        assert len(calls) == len(keys)
        model.ebar(*keys[0])
        assert calls[-1] == keys[0]
        assert len(calls) == len(keys) + 1

    def test_convention_threads_to_solver(self):
        paper = EnergyModel(ebar_convention="paper")
        div = EnergyModel(ebar_convention="diversity_only")
        assert paper.ebar(0.001, 2, 3, 1) == pytest.approx(
            3.0 * div.ebar(0.001, 2, 3, 1), rel=1e-9
        )
