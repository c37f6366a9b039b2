"""Underlay system tests: PA accounting and the noise-floor criterion."""

import pytest

from repro.core.underlay import UnderlaySystem
from repro.energy.model import EnergyModel
from tests import b_search_reference as ref


@pytest.fixture(scope="module")
def system():
    return UnderlaySystem(EnergyModel())


class TestPaEnergy:
    def test_siso_has_no_local_component(self, system):
        res = system.pa_energy(0.001, 1, 1, 1.0, 200.0, 10e3)
        assert res.hop.pa_local_a == 0.0
        assert res.hop.pa_local_b == 0.0
        assert res.total_pa == pytest.approx(res.hop.pa_longhaul)

    def test_b_minimizes_total(self, system):
        res = system.pa_energy(0.001, 2, 2, 1.0, 200.0, 10e3)
        from repro.core.schemes import hop_energy

        for b in (1, 2, 4):
            alt = hop_energy(system.model, 0.001, b, 2, 2, 1.0, 200.0, 10e3).pa_total
            assert res.total_pa <= alt + 1e-30

    def test_peak_never_exceeds_total(self, system):
        for (mt, mr) in [(1, 1), (2, 1), (1, 3), (3, 2)]:
            res = system.pa_energy(0.001, mt, mr, 1.0, 150.0, 10e3)
            assert res.peak_pa <= res.total_pa + 1e-30

    def test_grows_with_distance(self, system):
        near = system.pa_energy(0.001, 2, 2, 1.0, 100.0, 10e3)
        far = system.pa_energy(0.001, 2, 2, 1.0, 300.0, 10e3)
        assert far.total_pa > near.total_pa


class TestNoiseFloorCriterion:
    def test_siso_dominates_cooperation(self, system):
        siso = system.siso_reference(0.001, 1.0, 200.0, 10e3)
        for (mt, mr) in [(2, 1), (1, 2), (1, 3), (2, 3), (3, 1)]:
            coop = system.pa_energy(0.001, mt, mr, 1.0, 200.0, 10e3)
            assert coop.total_pa < siso.total_pa

    def test_margin_matches_ratio(self, system):
        siso = system.siso_reference(0.001, 1.0, 200.0, 10e3)
        coop = system.pa_energy(0.001, 2, 3, 1.0, 200.0, 10e3)
        margin = system.interference_margin(0.001, 2, 3, 1.0, 200.0, 10e3)
        assert margin == pytest.approx(siso.total_pa / coop.total_pa)

    def test_mt_less_than_mr_cheaper(self, system):
        """Transmission costs more than reception (Section 6.2)."""
        e12 = system.pa_energy(0.001, 1, 2, 1.0, 200.0, 10e3).total_pa
        e21 = system.pa_energy(0.001, 2, 1, 1.0, 200.0, 10e3).total_pa
        assert e12 < e21

    def test_meets_noise_floor(self, system):
        assert system.meets_noise_floor(0.001, 2, 3, 1.0, 200.0, 10e3)
        assert not system.meets_noise_floor(
            0.001, 2, 3, 1.0, 200.0, 10e3, required_margin=1e9
        )
        with pytest.raises(ValueError):
            system.meets_noise_floor(0.001, 2, 3, 1.0, 200.0, 10e3, required_margin=0.0)

    def test_d_has_small_impact(self, system):
        """Section 6.2: 'the value of d doesn't give any big impact'."""
        small = system.pa_energy(0.001, 2, 3, 1.0, 200.0, 10e3).total_pa
        large = system.pa_energy(0.001, 2, 3, 16.0, 200.0, 10e3).total_pa
        assert large / small < 1.5


class TestSweep:
    def test_validation(self, system):
        with pytest.raises(ValueError):
            system.pa_energy(0.001, 0, 1, 1.0, 100.0, 10e3)
        with pytest.raises(ValueError):
            system.pa_energy(0.001, 1, 1, 1.0, 0.0, 10e3)
        with pytest.raises(TypeError):
            system.pa_energy(0.001, 1, 1, 1.0, True, 10e3)
        with pytest.raises(ValueError):
            UnderlaySystem(EnergyModel(), b_range=())


class TestVectorizedPaEnergySweep:
    """pa_energy_sweep must reproduce the size-by-size reference pa_energy
    exactly — same floats, same selected constellation sizes — per
    distance."""

    def test_matches_scalar_bitwise(self, system):
        distances = (100.0, 150.0, 200.0, 250.0, 300.0)
        for (mt, mr) in ((1, 1), (2, 1), (1, 2), (2, 3), (3, 1)):
            vec = system.pa_energy_sweep(0.001, mt, mr, 1.0, distances, 10e3)
            scalar = [
                ref.pa_energy(system, 0.001, mt, mr, 1.0, d, 10e3) for d in distances
            ]
            assert vec == scalar

    def test_matches_scalar_at_lax_ber(self, system):
        """A lax target makes small b infeasible on the local link; the
        vectorized skip must mirror minimize_over_b's."""
        distances = (100.0, 200.0)
        vec = system.pa_energy_sweep(0.05, 2, 2, 1.0, distances, 10e3)
        scalar = [ref.pa_energy(system, 0.05, 2, 2, 1.0, d, 10e3) for d in distances]
        assert vec == scalar

    def test_validation(self, system):
        with pytest.raises(ValueError):
            system.pa_energy_sweep(0.001, 0, 1, 1.0, (100.0,), 10e3)
        with pytest.raises(ValueError):
            system.pa_energy_sweep(0.001, 1, 1, 1.0, (0.0,), 10e3)
        with pytest.raises(TypeError):
            system.pa_energy_sweep(0.001, 1, 1, 1.0, (100.0, "5"), 10e3)
