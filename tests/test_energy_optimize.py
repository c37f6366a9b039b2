"""Constellation-size optimizer tests."""

import math

import numpy as np
import pytest

from repro.energy.optimize import (
    DEFAULT_B_RANGE,
    OptimizationResult,
    best_over_b,
    maximize_mimo_distance,
    minimize_mimo_tx_energy,
    minimize_over_b,
)


class TestMinimizeOverB:
    def test_finds_minimum(self):
        result = minimize_over_b(lambda b: (b - 5) ** 2, range(1, 10))
        assert result.b == 5
        assert result.value == 0.0

    def test_maximize_mode(self):
        result = minimize_over_b(lambda b: -((b - 3) ** 2), range(1, 10), maximize=True)
        assert result.b == 3

    def test_skips_infeasible_candidates(self):
        def objective(b):
            if b < 4:
                raise ValueError("infeasible")
            return float(b)

        result = minimize_over_b(objective, range(1, 8))
        assert result.b == 4

    def test_all_infeasible_raises(self):
        def objective(b):
            raise ValueError("never feasible")

        with pytest.raises(ValueError):
            minimize_over_b(objective, range(1, 4))

    def test_unpacking(self):
        b, value = OptimizationResult(b=3, value=1.5)
        assert (b, value) == (3, 1.5)

    def test_default_range_is_paper_sweep(self):
        assert DEFAULT_B_RANGE == tuple(range(1, 17))


class TestBestOverB:
    """Each column of the grid, searched by minimize_over_b with NaN (and,
    when minimizing, an infinite energy) raising ValueError, must give the
    same row, value and error."""

    COLUMNS = [
        [3.0, 1.0, 1.0, 2.0],  # tie: the first minimum wins
        [math.nan, 5.0, math.nan, 4.0],  # skipped sizes
        [math.inf, 7.0, 7.5, math.nan],  # an overflowing energy is skipped
        [0.0, 0.0, math.nan, 0.0],  # zero reach ties (maximize)
    ]

    @staticmethod
    def scalar(column, maximize):
        def objective(b):
            value = column[b - 1]
            if math.isnan(value) or (not maximize and math.isinf(value)):
                raise ValueError("skipped")
            return value

        return minimize_over_b(objective, range(1, len(column) + 1), maximize=maximize)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_matches_minimize_over_b_per_column(self, maximize):
        columns = [c for c in self.COLUMNS if not (maximize and math.inf in c)]
        rows, best = best_over_b(np.array(columns).T, maximize=maximize)
        for column, row, value in zip(columns, rows.tolist(), best.tolist()):
            expected = self.scalar(column, maximize)
            assert (row + 1, value) == (expected.b, expected.value)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_no_feasible_size_raises_the_scalar_error(self, maximize):
        column = [math.nan, math.nan]
        with pytest.raises(ValueError) as scalar:
            self.scalar(column, maximize)
        with pytest.raises(ValueError) as array:
            best_over_b(np.array([column, [1.0, 2.0]]).T, maximize=maximize)
        assert str(array.value) == str(scalar.value)

    def test_infinite_maximum_raises_the_optimization_result_error(self):
        column = [math.nan, 2.0, math.inf, 1.0]
        with pytest.raises(ValueError) as scalar:
            self.scalar(column, maximize=True)
        with pytest.raises(ValueError) as array:
            best_over_b(np.array([column]).T, maximize=True)
        assert str(array.value) == str(scalar.value) == "value must be finite, got inf"


class TestEnergyObjectives:
    def test_minimize_energy_beats_fixed_b(self, energy_model):
        best = minimize_mimo_tx_energy(energy_model, 0.001, 2, 2, 200.0, 10e3)
        for b in (1, 2, 4, 8):
            fixed = energy_model.mimo_tx(0.001, b, 2, 2, 200.0, 10e3).total
            assert best.value <= fixed + 1e-30

    def test_maximize_distance_beats_fixed_b(self, energy_model):
        budget = 2e-5
        best = maximize_mimo_distance(energy_model, budget, 0.001, 2, 1, 10e3)
        for b in (1, 2, 4):
            fixed = energy_model.max_mimo_distance(budget, 0.001, b, 2, 1, 10e3)
            assert best.value >= fixed - 1e-12

    def test_callable_extra_circuit(self, energy_model):
        budget = 2e-5
        result = maximize_mimo_distance(
            energy_model,
            budget,
            0.001,
            2,
            1,
            10e3,
            extra_circuit=lambda b: energy_model.mimo_rx(b, 10e3).total,
        )
        plain = maximize_mimo_distance(energy_model, budget, 0.001, 2, 1, 10e3)
        assert result.value < plain.value

    def test_wide_bandwidth_prefers_low_b(self, energy_model):
        """With cheap circuit energy the PA dominates, and the PA is
        minimized by small constellations (lower required SNR)."""
        best = minimize_mimo_tx_energy(energy_model, 0.001, 1, 1, 300.0, 1e6)
        assert best.b <= 2

    def test_empty_range_rejected(self, energy_model):
        with pytest.raises(ValueError):
            minimize_mimo_tx_energy(energy_model, 0.001, 1, 1, 100.0, 10e3, b_range=())
