"""Benchmarks for the extension systems beyond the paper's headline scope."""

import numpy as np

from repro.baselines.power_game import PowerControlGame
from repro.energy.model import EnergyModel
from repro.network import CoMIMONet, SUNode
from repro.network.protocol import SessionSimulator


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


class TestProtocol:
    def test_three_hop_session(self, benchmark):
        def run():
            rng = np.random.default_rng(5)
            nodes = []
            nid = 0
            for cx in (0.0, 120.0, 240.0, 360.0):
                for _ in range(3):
                    off = rng.uniform(-0.8, 0.8, 2)
                    nodes.append(SUNode(nid, (cx + off[0], off[1]), battery_j=1e4))
                    nid += 1
            net = CoMIMONet(nodes, cluster_diameter=2.5, longhaul_range=150.0)
            sim = SessionSimulator(net, EnergyModel(), rng=5)
            return sim.run_session(0, 3, 500_000.0)

        result = benchmark(run)
        assert result.completed
