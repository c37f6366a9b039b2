"""EbarTable tests: grid building and lookup semantics."""

import numpy as np
import pytest

from repro.energy.ebar import solve_ebar
from repro.energy.table import EbarTable


@pytest.fixture(scope="module")
def small_table():
    return EbarTable(
        p_values=(0.01, 0.001),
        b_values=(1, 2, 4),
        mt_values=(1, 2),
        mr_values=(1, 2),
    )


class TestBuild:
    def test_size(self, small_table):
        assert len(small_table) == 2 * 3 * 2 * 2

    def test_matches_solver(self, small_table):
        assert small_table.lookup(0.001, 2, 2, 2) == pytest.approx(
            solve_ebar(0.001, 2, 2, 2)
        )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            EbarTable(p_values=())


class TestLookup:
    def test_p_snaps_to_nearest(self, small_table):
        assert small_table.lookup(0.0012, 2, 1, 1) == small_table.lookup(0.001, 2, 1, 1)

    def test_off_grid_b_rejected(self, small_table):
        with pytest.raises(KeyError):
            small_table.lookup(0.001, 3, 1, 1)

    def test_off_grid_m_rejected(self, small_table):
        with pytest.raises(KeyError):
            small_table.lookup(0.001, 2, 4, 1)

    def test_callable_interface(self, small_table):
        assert small_table(0.001, 2, 1, 2) == small_table.lookup(0.001, 2, 1, 2)

    def test_infeasible_entry_is_nan_and_raises(self):
        # p = 0.4 is above b=4's ceiling 0.375 -> NaN entry
        table = EbarTable(p_values=(0.4,), b_values=(1, 4), mt_values=(1,), mr_values=(1,))
        with pytest.raises(KeyError):
            table.lookup(0.4, 4, 1, 1)
        # but b = 1 (ceiling 0.5) works
        assert table.lookup(0.4, 1, 1, 1) > 0


class TestModelIntegration:
    def test_plugs_into_energy_model(self, small_table):
        from repro.energy.model import EnergyModel

        model = EnergyModel(ebar_provider=small_table)
        exact = EnergyModel()
        via_table = model.mimo_tx(0.001, 2, 2, 2, 150.0, 10e3).total
        direct = exact.mimo_tx(0.001, 2, 2, 2, 150.0, 10e3).total
        assert via_table == pytest.approx(direct, rel=1e-9)


class TestOffGridRegression:
    """Regression tests for the grid-membership guard.

    An earlier version compared a stale memo key against itself, so an
    off-grid (b, mt, mr) could silently return a neighbouring entry instead
    of raising.  Every axis must now reject off-grid and non-integer values.
    """

    def test_off_grid_b_raises_not_nearest(self, small_table):
        with pytest.raises(KeyError, match="b=3"):
            small_table.lookup(0.001, 3, 1, 1)

    def test_non_integer_b_raises(self, small_table):
        with pytest.raises(KeyError, match="b=2.5"):
            small_table.lookup(0.001, 2.5, 1, 1)

    def test_off_grid_mt_raises(self, small_table):
        with pytest.raises(KeyError, match="mt=3"):
            small_table.lookup(0.001, 2, 3, 1)

    def test_off_grid_mr_raises(self, small_table):
        with pytest.raises(KeyError, match="mr=4"):
            small_table.lookup(0.001, 2, 1, 4)

    def test_non_integer_m_raises(self, small_table):
        with pytest.raises(KeyError):
            small_table.lookup(0.001, 2, 1.5, 1)
        with pytest.raises(KeyError):
            small_table.lookup(0.001, 2, 1, 1.5)


class TestArrayLookups:
    def test_array_p_lookup(self, small_table):
        p = np.array([0.01, 0.001, 0.0012])
        out = small_table.lookup(p, 2, 1, 1)
        assert out.shape == (3,)
        assert out[0] == small_table.lookup(0.01, 2, 1, 1)
        assert out[1] == out[2] == small_table.lookup(0.001, 2, 1, 1)

    def test_array_b_lookup_broadcasts(self, small_table):
        out = small_table.lookup(0.001, np.array([1, 2, 4]), 2, 2)
        assert out.shape == (3,)
        for j, b in enumerate((1, 2, 4)):
            assert out[j] == small_table.lookup(0.001, b, 2, 2)

    def test_array_lookup_passes_nan_through(self):
        table = EbarTable(
            p_values=(0.4,), b_values=(1, 4), mt_values=(1,), mr_values=(1,)
        )
        out = table.lookup(0.4, np.array([1, 4]), 1, 1)
        assert np.isfinite(out[0])
        assert np.isnan(out[1])
