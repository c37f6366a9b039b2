"""Benchmarks for the extension systems beyond the paper's headline scope."""

import numpy as np

from repro.baselines.power_game import PowerControlGame


class TestPowerGame:
    def test_8_player_equilibrium(self, benchmark):
        rng = np.random.default_rng(0)
        n = 8
        d = rng.uniform(5.0, 100.0, (n, n))
        np.fill_diagonal(d, rng.uniform(2.0, 10.0, n))
        g = 1e-3 * d ** -3.5
        h = 1e-3 * rng.uniform(20.0, 120.0, n) ** -3.5
        game = PowerControlGame(g, h, price=1e12)
        outcome = benchmark(game.run)
        assert outcome.converged

