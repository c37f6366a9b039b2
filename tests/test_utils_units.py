"""Unit-conversion tests: known anchors, inverses, and error paths."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.units import (
    amplitude_ratio_to_db,
    db_to_amplitude_ratio,
    db_to_linear,
    dbi_to_linear,
    dbm_per_hz_to_watts_per_hz,
    dbm_to_watts,
    linear_to_db,
    milliwatts_to_watts,
    watts_to_dbm,
)


class TestAnchors:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_ten_db_is_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_three_db_is_about_two(self):
        assert db_to_linear(3.0) == pytest.approx(2.0, rel=0.01)

    def test_zero_dbm_is_one_milliwatt(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_thirty_dbm_is_one_watt(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)

    def test_thermal_noise_floor(self):
        # -174 dBm/Hz is the textbook room-temperature value ~4e-21 W/Hz
        assert dbm_per_hz_to_watts_per_hz(-174.0) == pytest.approx(3.98e-21, rel=0.01)

    def test_dbi_matches_db(self):
        assert dbi_to_linear(5.0) == pytest.approx(db_to_linear(5.0))

    def test_milliwatts(self):
        assert milliwatts_to_watts(48.64) == pytest.approx(0.04864)


class TestInverses:
    @given(st.floats(min_value=-200.0, max_value=200.0))
    def test_db_roundtrip(self, x):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-9)

    @given(st.floats(min_value=-150.0, max_value=60.0))
    def test_dbm_roundtrip(self, x):
        assert watts_to_dbm(dbm_to_watts(x)) == pytest.approx(x, abs=1e-9)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_monotone(self, x):
        assert db_to_linear(x + 1.0) > db_to_linear(x)


class TestArrays:
    def test_db_to_linear_broadcasts(self):
        out = db_to_linear(np.array([0.0, 10.0, 20.0]))
        np.testing.assert_allclose(out, [1.0, 10.0, 100.0])

    def test_linear_to_db_rejects_nonpositive_array(self):
        with pytest.raises(ValueError):
            linear_to_db(np.array([1.0, 0.0]))


class TestErrors:
    def test_linear_to_db_rejects_zero(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    def test_linear_to_db_rejects_negative(self):
        with pytest.raises(ValueError):
            linear_to_db(-3.0)

    def test_watts_to_dbm_rejects_zero(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)


class TestAmplitudeRatios:
    """The 20-log helpers added for the testbed radio model."""

    def test_unity_ratio_is_zero_db(self):
        assert amplitude_ratio_to_db(1.0) == 0.0

    def test_doubling_amplitude_is_about_six_db(self):
        assert amplitude_ratio_to_db(2.0) == pytest.approx(6.0206, rel=1e-4)

    def test_power_is_square_of_amplitude(self):
        # halving the DAC amplitude costs the same dB as quartering power
        assert amplitude_ratio_to_db(0.5) == pytest.approx(
            linear_to_db(0.25), abs=1e-12
        )

    @given(st.floats(min_value=-60.0, max_value=60.0))
    def test_roundtrip(self, x):
        assert amplitude_ratio_to_db(db_to_amplitude_ratio(x)) == pytest.approx(
            x, abs=1e-9
        )

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            amplitude_ratio_to_db(0.0)
        with pytest.raises(ValueError):
            amplitude_ratio_to_db(-1.0)

    def test_broadcasts(self):
        out = amplitude_ratio_to_db(np.array([800.0, 400.0]) / 800.0)
        np.testing.assert_allclose(out, [0.0, -6.0206], rtol=1e-4)


class TestMoreRoundTrips:
    @given(st.floats(min_value=1e-12, max_value=1e6))
    def test_linear_db_roundtrip_from_linear_side(self, x):
        assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-9)

    @given(st.floats(min_value=1e-15, max_value=1e3))
    def test_watts_dbm_roundtrip_from_watts_side(self, w):
        assert dbm_to_watts(watts_to_dbm(w)) == pytest.approx(w, rel=1e-9)

    def test_dbm_per_hz_alias_consistency(self):
        assert dbm_per_hz_to_watts_per_hz(-171.0) == dbm_to_watts(-171.0)
