"""Path-loss model tests: formulas, monotonicity, inversion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channel.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PowerLawPathLoss,
)

distances = st.floats(min_value=0.1, max_value=1e4)


class TestPowerLaw:
    def test_matches_paper_constants(self):
        model = PowerLawPathLoss()  # paper defaults
        assert model.gain(10.0) == pytest.approx(0.01 * 10**3.5 * 1e4)

    @given(distances, distances)
    def test_monotone(self, d1, d2):
        model = PowerLawPathLoss()
        if d1 < d2:
            assert model.gain(d1) < model.gain(d2)

    def test_exponent_effect(self):
        shallow = PowerLawPathLoss(kappa=2.0)
        steep = PowerLawPathLoss(kappa=4.0)
        # same at 1 m, steeper divergence beyond
        assert steep.gain(10.0) / steep.gain(1.0) > shallow.gain(10.0) / shallow.gain(1.0)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            PowerLawPathLoss(g1=-1.0)
        with pytest.raises(ValueError):
            PowerLawPathLoss().gain(0.0)


class TestFreeSpace:
    def test_square_law(self):
        model = FreeSpacePathLoss()
        assert model.gain(200.0) == pytest.approx(model.gain(100.0) * 4.0)

    def test_attenuation_db_consistent(self):
        model = FreeSpacePathLoss()
        assert model.attenuation_db(50.0) == pytest.approx(
            10 * np.log10(model.gain(50.0))
        )

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            FreeSpacePathLoss(wavelength_m=0.0)


class TestLogDistance:
    def test_reference_point(self):
        model = LogDistancePathLoss(reference_loss_db=40.0, exponent=3.0)
        assert model.attenuation_db(1.0) == pytest.approx(40.0)

    def test_slope_per_decade(self):
        model = LogDistancePathLoss(reference_loss_db=40.0, exponent=3.0)
        assert model.attenuation_db(10.0) - model.attenuation_db(1.0) == (
            pytest.approx(30.0)
        )

    def test_gain_matches_db(self):
        model = LogDistancePathLoss()
        assert model.gain(7.0) == pytest.approx(10 ** (model.attenuation_db(7.0) / 10))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=0.0)
        with pytest.raises(ValueError):
            LogDistancePathLoss(reference_distance_m=-1.0)
