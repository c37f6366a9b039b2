"""EbarTable caching: the process memo and its env controls.

The "Preprocessing" table is solved once per process and reused
everywhere, so these tests guard the warm-start contract: a second
construction in the same process performs **zero** root-finding work,
and ``REPRO_NO_CACHE=1`` (or ``use_cache=False``) opts out.
"""

import numpy as np
import pytest

import repro.energy.table as table_mod
from repro.energy.table import EbarTable

GRID = dict(
    p_values=(0.01, 0.001),
    b_values=(1, 2, 4),
    mt_values=(1, 2),
    mr_values=(1, 2),
)


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Start with a cold memo; any disk write would land under tmp."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    EbarTable.clear_memory_cache()
    yield
    EbarTable.clear_memory_cache()


@pytest.fixture
def count_solves(monkeypatch):
    """Count invocations of the batch solver the table builds with."""
    calls = []
    real = table_mod.solve_ebar_batch

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(table_mod, "solve_ebar_batch", counting)
    return calls


class TestProcessMemo:
    def test_second_instance_skips_solve(self, count_solves):
        EbarTable(**GRID)
        assert len(count_solves) == 1
        EbarTable(**GRID)
        assert len(count_solves) == 1

    def test_different_spec_solves_again(self, count_solves):
        EbarTable(**GRID)
        EbarTable(**GRID, convention="diversity_only")
        assert len(count_solves) == 2

    def test_memoed_instances_agree(self):
        first = EbarTable(**GRID)
        second = EbarTable(**GRID)
        assert np.array_equal(first._grid, second._grid)

    def test_memo_writes_nothing_to_disk(self, tmp_path):
        EbarTable(**GRID)
        assert list(tmp_path.iterdir()) == []


class TestEnvironmentControls:
    def test_no_cache_env_disables_the_memo(self, monkeypatch, count_solves):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        EbarTable(**GRID)
        EbarTable(**GRID)
        assert len(count_solves) == 2

    def test_use_cache_false_disables_the_memo(self, count_solves):
        EbarTable(**GRID, use_cache=False)
        EbarTable(**GRID, use_cache=False)
        assert len(count_solves) == 2


class TestEnergyModelConstruction:
    def test_default_construction_runs_zero_root_finds(self, monkeypatch):
        """EnergyModel() must stay lazy: no solving at construction time."""
        from repro.energy import ebar

        def forbidden(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("_brentq called during EnergyModel()")

        monkeypatch.setattr(ebar, "_brentq", forbidden)
        from repro.energy.model import EnergyModel

        EnergyModel()

    def test_table_backed_model_with_warm_cache_runs_zero_root_finds(
        self, monkeypatch
    ):
        from repro.energy.model import EnergyModel

        warm = EbarTable(**GRID)
        del warm

        from repro.energy import ebar

        def forbidden(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("_brentq called despite a warm table cache")

        monkeypatch.setattr(ebar, "_brentq", forbidden)
        model = EnergyModel(ebar_provider=EbarTable(**GRID))
        assert model.ebar(0.001, 2, 2, 2) > 0.0
