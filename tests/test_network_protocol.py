"""Protocol-level session simulation tests."""

import numpy as np
import pytest

from repro.energy.model import EnergyModel
from repro.network import CoMIMONet, SUNode
from repro.network.protocol import SessionSimulator


def _network(battery_j=1000.0, seed=0, n_clusters=3, spacing=120.0):
    rng = np.random.default_rng(seed)
    nodes = []
    nid = 0
    for c in range(n_clusters):
        for _ in range(3):
            off = rng.uniform(-0.8, 0.8, 2)
            nodes.append(SUNode(nid, (c * spacing + off[0], off[1]), battery_j=battery_j))
            nid += 1
    return CoMIMONet(nodes, cluster_diameter=2.5, longhaul_range=spacing * 1.2)


@pytest.fixture(scope="module")
def model():
    return EnergyModel()


class TestBasicSession:
    def test_delivers_full_payload(self, model):
        sim = SessionSimulator(_network(), model, rng=1)
        result = sim.run_session(0, 2, n_bits=500_000.0)
        assert result.completed
        assert result.delivered_bits == 500_000.0
        assert result.hops_completed == 2 * 5  # 2 hops x 5 chunks
        assert result.elapsed_s == 100.03446  # pinned: 100 s airtime + MAC
        assert result.goodput_bps > 0.0

    def test_latency_decomposition(self, model):
        sim = SessionSimulator(_network(), model, rng=2)
        result = sim.run_session(0, 2, n_bits=200_000.0)
        assert result.elapsed_s == pytest.approx(
            result.airtime_s + result.mac_delay_s, rel=1e-9
        )
        assert result.mac_delay_s > 0.0

    def test_energy_charged_to_route_clusters(self, model):
        sim = SessionSimulator(_network(), model, rng=3)
        result = sim.run_session(0, 2, n_bits=100_000.0)
        assert set(result.energy_by_cluster_j) == {0, 1, 2}
        assert result.total_energy_j > 0.0

    def test_same_cluster_session_trivial(self, model):
        sim = SessionSimulator(_network(), model, rng=4)
        result = sim.run_session(1, 1, n_bits=1000.0)
        assert result.completed
        assert result.hops_completed == 0

    def test_validation(self, model):
        sim = SessionSimulator(_network(), model, rng=5)
        with pytest.raises(ValueError):
            sim.run_session(0, 2, n_bits=0.0)


class TestPolicies:
    def test_cooperative_radiates_less_energy_total_at_long_range(self, model):
        """At 160 m hops the diversity savings beat the circuit overhead."""
        coop = SessionSimulator(
            _network(seed=7, spacing=160.0), model, cooperative=True, rng=6
        ).run_session(0, 2, 200_000.0)
        siso = SessionSimulator(
            _network(seed=7, spacing=160.0), model, cooperative=False, rng=6
        ).run_session(0, 2, 200_000.0)
        assert coop.completed and siso.completed
        assert coop.total_energy_j < siso.total_energy_j

    def test_siso_airtime_never_worse_at_matched_rate(self, model):
        """SISO skips the intra phases and the rate-1/2 stretch; the
        cooperative policy can only recover via a larger optimized b, so
        per-bit airtime is never strictly better than SISO's."""
        coop = SessionSimulator(_network(seed=8), model, cooperative=True, rng=7)
        siso = SessionSimulator(_network(seed=8), model, cooperative=False, rng=7)
        r_coop = coop.run_session(0, 2, 100_000.0)
        r_siso = siso.run_session(0, 2, 100_000.0)
        assert r_siso.hops_completed == r_coop.hops_completed
        assert r_siso.airtime_s <= r_coop.airtime_s + 1e-9


class TestFailureHandling:
    def test_tiny_batteries_end_session_early(self, model):
        network = _network(battery_j=0.5)
        sim = SessionSimulator(network, model, rng=9)
        result = sim.run_session(0, 2, n_bits=5e7, chunk_bits=1e6)
        assert not result.completed
        assert result.delivered_bits < 5e7

    def test_reconfiguration_counted(self, model):
        network = _network(battery_j=3.0)
        sim = SessionSimulator(network, model, rng=10)
        result = sim.run_session(0, 2, n_bits=5e7, chunk_bits=1e6)
        assert result.reconfigurations == 1
        assert result.elapsed_s == 200.0245  # pinned across the reroute

    def test_partitioned_network_no_delivery(self, model):
        nodes = [SUNode(0, (0.0, 0.0)), SUNode(1, (5000.0, 0.0))]
        network = CoMIMONet(nodes, cluster_diameter=1.0, longhaul_range=10.0)
        sim = SessionSimulator(network, model, rng=11)
        result = sim.run_session(0, 1, n_bits=1000.0)
        assert not result.completed
        assert result.delivered_bits == 0.0
