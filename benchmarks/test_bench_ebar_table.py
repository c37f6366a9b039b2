"""Benchmarks: vectorized ``e_bar_b`` grid solving and the table memo.

Run via ``scripts/bench_energy.sh`` to regenerate ``BENCH_energy.json``;
the comparisons of interest are

* ``batch_solve_default_grid`` vs ``scalar_solve_default_grid`` — the
  vectorized bisection against the per-point Brent (``solve_ebar``) loop it replaced
  (the PR's headline >= 10x);
* ``cold_build`` vs ``warm_memo_hit`` — table construction including the
  solve, against a second construction in the same process.
"""

import numpy as np

from repro.energy.ebar import solve_ebar, solve_ebar_batch
from repro.energy.table import (
    DEFAULT_B_GRID,
    DEFAULT_M_GRID,
    DEFAULT_P_GRID,
    EbarTable,
)


def _default_grid_arrays():
    return np.meshgrid(
        np.array(DEFAULT_P_GRID),
        np.array(DEFAULT_B_GRID),
        np.array(DEFAULT_M_GRID),
        np.array(DEFAULT_M_GRID),
        indexing="ij",
    )


def test_batch_solve_default_grid(benchmark):
    p_g, b_g, mt_g, mr_g = _default_grid_arrays()
    grid = benchmark(solve_ebar_batch, p_g, b_g, mt_g, mr_g)
    assert grid.shape == p_g.shape
    assert np.isfinite(grid).all()


def test_scalar_solve_default_grid(benchmark):
    """The pre-vectorization baseline: one Brent root-find per grid point."""
    p_g, b_g, mt_g, mr_g = _default_grid_arrays()

    def solve_all():
        out = np.empty(p_g.shape)
        for idx in np.ndindex(p_g.shape):
            out[idx] = solve_ebar(
                float(p_g[idx]), int(b_g[idx]), int(mt_g[idx]), int(mr_g[idx])
            )
        return out

    grid = benchmark.pedantic(solve_all, rounds=3, iterations=1)
    assert np.isfinite(grid).all()


def test_cold_build(benchmark):
    """Default-grid table construction with all caching disabled."""
    table = benchmark(EbarTable, use_cache=False)
    assert len(table) == (
        len(DEFAULT_P_GRID) * len(DEFAULT_B_GRID) * len(DEFAULT_M_GRID) ** 2
    )


def test_warm_memo_hit(benchmark):
    """Construction against the process-level memo (the in-process path)."""
    EbarTable()
    table = benchmark(EbarTable)
    assert len(table) > 0


def test_batch_lookup_scales(benchmark):
    """Array lookup over 10k BER queries (the sweeps' access pattern)."""
    table = EbarTable()
    rng = np.random.default_rng(0)
    p = rng.uniform(0.0005, 0.1, 10_000)
    out = benchmark(table.lookup, p, 2, 2, 2)
    assert out.shape == p.shape
