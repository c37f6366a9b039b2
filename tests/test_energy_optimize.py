"""Constellation-size optimizer tests.

``TestMinimizeOverB`` pins the rules of the size-by-size reference search
(``tests/b_search_reference.py``) that the property tests compare the
array pass against; ``TestBestOverB`` holds the array pass to it.
"""

import math

import numpy as np
import pytest

from repro.core.overlay import OverlaySystem
from repro.energy.optimize import DEFAULT_B_RANGE, best_over_b
from tests.b_search_reference import OptimizationResult, minimize_over_b


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
        _, energy = OverlaySystem(energy_model).direct_link_energy(200.0, 0.001, 10e3)
        for b in (1, 2, 4, 8):
            fixed = energy_model.mimo_tx(0.001, b, 1, 1, 200.0, 10e3).total
            assert energy <= fixed + 1e-30

    def test_maximize_distance_beats_fixed_b(self, energy_model):
        res = OverlaySystem(energy_model).distance_analysis(250.0, 2, 10e3, 0.005, 0.001)
        for b in (1, 2, 4):
            fixed = energy_model.max_mimo_distance(res.e1, 0.001, b, 1, 2, 10e3)
            assert res.d2 >= fixed - 1e-12

    def test_callable_extra_circuit(self, energy_model):
        """At m = 1 both relayed links are 1x1, so D3 differs from D2 only
        by the reception energy e^{MIMOr}(b) its budget must also cover."""
        res = OverlaySystem(energy_model).distance_analysis(250.0, 1, 10e3, 0.005, 0.001)
        assert res.d3 < res.d2
        for b in (1, 2, 4):
            fixed = energy_model.max_mimo_distance(
                res.e1, 0.001, b, 1, 1, 10e3,
                extra_circuit=energy_model.mimo_rx(b, 10e3).total,
            )
            assert res.d3 >= fixed - 1e-12

    def test_wide_bandwidth_prefers_low_b(self, energy_model):
        """With cheap circuit energy the PA dominates, and the PA is
        minimized by small constellations (lower required SNR)."""
        b, _ = OverlaySystem(energy_model).direct_link_energy(300.0, 0.001, 1e6)
        assert b == 1
