"""Overlay system tests: Algorithm 1 accounting and the distance analysis."""

import pytest

from repro.core.overlay import OverlaySystem
from repro.energy.model import EnergyModel
from tests import b_search_reference as ref


@pytest.fixture(scope="module")
def system():
    return OverlaySystem(EnergyModel())


@pytest.fixture(scope="module")
def system_div():
    return OverlaySystem(EnergyModel(ebar_convention="diversity_only"))


class TestRelayEnergy:
    def test_components(self, system):
        res = system.relay_energy(p=0.001, m=3, d_pt_su=100.0, d_su_pr=150.0, bandwidth=10e3)
        assert res.m == 3
        assert res.su_total == pytest.approx(res.su_tx + res.su_rx)
        # reception is circuit-only, far below the long-haul transmit energy
        assert res.su_rx < res.su_tx
        assert res.primary_rx < res.primary_tx

    def test_b_choices_minimize(self, system):
        res = system.relay_energy(0.001, 2, 100.0, 100.0, 10e3)
        for b in (1, 2, 4, 8):
            alt = system.model.mimo_tx(0.001, b, 2, 1, 100.0, 10e3).total
            assert res.su_tx <= alt + 1e-30

    def test_validation(self, system):
        with pytest.raises(ValueError):
            system.relay_energy(0.001, 0, 100.0, 100.0, 10e3)
        with pytest.raises(ValueError):
            system.relay_energy(0.001, 2, -1.0, 100.0, 10e3)


class TestDirectLink:
    def test_energy_grows_with_distance(self, system):
        _, e_near = system.direct_link_energy(150.0, 0.005, 40e3)
        _, e_far = system.direct_link_energy(350.0, 0.005, 40e3)
        assert e_far > e_near

    def test_stricter_ber_costs_more(self, system):
        _, lax = system.direct_link_energy(250.0, 0.005, 40e3)
        _, strict = system.direct_link_energy(250.0, 0.0005, 40e3)
        assert strict > lax


class TestDistanceAnalysis:
    def test_fig6_shapes(self, system_div):
        res = system_div.distance_analysis(d1=250.0, m=3, bandwidth=40e3)
        # relays can sit beyond the direct distance at 10x better BER
        assert res.d2 > res.d1
        assert res.d3 > res.d1
        # the paper's asymmetry: farther from Pr than from Pt
        assert res.d3 > res.d2

    def test_paper_convention_symmetric(self, system):
        res = system.distance_analysis(d1=250.0, m=3, bandwidth=40e3)
        # reception energy drags D3 slightly below D2, nothing more
        assert res.d3 == pytest.approx(res.d2, rel=0.15)

    def test_distances_grow_with_d1(self, system_div):
        near = system_div.distance_analysis(150.0, 3, 40e3)
        far = system_div.distance_analysis(350.0, 3, 40e3)
        assert far.d2 > near.d2 and far.d3 > near.d3

    def test_more_relays_reach_farther(self, system_div):
        m2 = system_div.distance_analysis(250.0, 2, 40e3)
        m3 = system_div.distance_analysis(250.0, 3, 40e3)
        assert m3.d3 > m2.d3

    def test_default_ber_targets(self, system_div):
        res = system_div.distance_analysis(200.0, 2, 20e3)
        assert res.p_direct == 0.005
        assert res.p_relay == 0.0005

    def test_empty_b_range_rejected(self):
        with pytest.raises(ValueError):
            OverlaySystem(EnergyModel(), b_range=())


class TestInvalidArgumentsNamed:
    """An invalid argument is reported by name, not as an infeasible
    constellation search."""

    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda s: s.distance_analysis(250.0, 3, 40e3, p_direct=1.5), "p_direct"),
            (lambda s: s.distance_analysis(250.0, 3, 40e3, p_relay=0.0), "p_relay"),
            (lambda s: s.distance_analysis(250.0, 3, -1.0), "bandwidth"),
            (lambda s: s.direct_link_energy(250.0, 1.5, 40e3), "p_direct"),
            (lambda s: s.direct_link_energy(250.0, 0.005, -1.0), "bandwidth"),
        ],
        ids=[
            "analysis-p_direct", "analysis-p_relay", "analysis-bandwidth",
            "direct-p_direct", "direct-bandwidth",
        ],
    )
    def test_message_names_the_field(self, system, call, field):
        with pytest.raises(ValueError) as info:
            call(system)
        assert str(info.value).startswith(f"{field} must ")


class TestVectorizedDistanceAnalyses:
    """distance_analyses must reproduce the size-by-size reference analysis
    exactly — same floats, same selected constellation sizes."""

    def test_matches_scalar_bitwise(self, system_div):
        d1_values = (150.0, 200.0, 250.0, 300.0, 350.0)
        for m in (2, 3):
            for bw in (20e3, 40e3):
                vec = system_div.distance_analyses(d1_values, m, bw)
                scalar = [
                    ref.distance_analysis(system_div, d1, m, bw) for d1 in d1_values
                ]
                assert vec == scalar

    def test_paper_convention_matches_too(self):
        system = OverlaySystem(EnergyModel(ebar_convention="paper"))
        vec = system.distance_analyses((200.0, 300.0), 3, 20e3)
        scalar = [ref.distance_analysis(system, d1, 3, 20e3) for d1 in (200.0, 300.0)]
        assert vec == scalar

    def test_longhaul_square_agrees_between_scalar_and_array(self):
        """(4 pi D)^2 as a Python-float power (C pow) landed 1 ULP off the
        array square at this D1, so one served e1 differed from the scalar
        Algorithm 1 (the gain is now one multiply on both paths)."""
        system = OverlaySystem(EnergyModel(ebar_convention="paper"))
        kwargs = dict(
            p_direct=0.0009668210143997612, p_relay=9.668210143997612e-05
        )
        d1 = 109.2812963273322
        scalar = ref.distance_analysis(system, d1, 3, 40e3, **kwargs)
        (vec,) = system.distance_analyses([d1], 3, 40e3, **kwargs)
        assert repr(vec) == repr(scalar)
        assert scalar.e1 == 2.3456010538721273e-05

    def test_validation(self, system_div):
        with pytest.raises(ValueError):
            system_div.distance_analyses((0.0, 100.0), 2, 20e3)
        with pytest.raises(ValueError):
            system_div.distance_analyses((100.0,), 0, 20e3)
