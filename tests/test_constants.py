"""SystemConstants tests: paper values, derived quantities, immutability."""

import dataclasses
import math

import numpy as np
import pytest

import repro.constants as constants_mod
from repro.constants import PAPER_CONSTANTS, SPEED_OF_LIGHT, SystemConstants


class TestPaperValues:
    def test_circuit_powers(self):
        assert PAPER_CONSTANTS.p_ct_w == pytest.approx(0.04864)
        assert PAPER_CONSTANTS.p_cr_w == pytest.approx(0.0625)
        assert PAPER_CONSTANTS.p_syn_w == pytest.approx(0.05)

    def test_noise_densities(self):
        assert PAPER_CONSTANTS.sigma2_w_hz == pytest.approx(3.981e-21, rel=1e-3)
        assert PAPER_CONSTANTS.n0_w_hz == pytest.approx(7.943e-21, rel=1e-3)

    def test_linear_conversions(self):
        assert PAPER_CONSTANTS.link_margin_linear == pytest.approx(1e4)
        assert PAPER_CONSTANTS.noise_figure_linear == pytest.approx(10.0)
        assert PAPER_CONSTANTS.antenna_gain_linear == pytest.approx(10**0.5)

    def test_carrier_frequency_near_2_5ghz(self):
        freq = PAPER_CONSTANTS.carrier_frequency_hz
        assert freq == pytest.approx(SPEED_OF_LIGHT / 0.1199)
        assert 2.4e9 < freq < 2.6e9


class TestLocalGain:
    def test_formula(self):
        # G_d = G1 d^kappa M_l at d = 10 m
        expected = 0.01 * 10**3.5 * 1e4
        assert PAPER_CONSTANTS.local_gain(10.0) == pytest.approx(expected)

    def test_monotone_in_distance(self):
        assert PAPER_CONSTANTS.local_gain(2.0) > PAPER_CONSTANTS.local_gain(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PAPER_CONSTANTS.local_gain(0.0)


class TestLonghaulGain:
    def test_exact_square_law(self):
        g1 = PAPER_CONSTANTS.longhaul_gain(1.0)
        assert PAPER_CONSTANTS.longhaul_gain(250.0) == pytest.approx(g1 * 250.0**2)

    def test_formula_at_unit_distance(self):
        c = PAPER_CONSTANTS
        expected = (
            (4 * np.pi) ** 2 / (c.antenna_gain_linear * c.wavelength_m**2) * 1e4 * 10
        )
        assert c.longhaul_gain(1.0) == pytest.approx(expected)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PAPER_CONSTANTS.longhaul_gain(-5.0)


DISTANCES = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1.0, 1e300, math.inf, math.nan]


def distance_forms(d):
    """``d`` as a float, an int where one holds it, np.float64 and two arrays."""
    forms = [("float", d)]
    if math.isfinite(d) and d == int(d):
        forms.append(("int", int(d)))
    forms += [("float64", np.float64(d)), ("0d", np.array(d)), ("1elem", np.array([d]))]
    return forms


def np_any_check(distance_m):
    """The array check every distance went through before the scalar shortcut."""
    if np.any(np.asarray(distance_m) <= 0.0):
        raise ValueError(f"distance_m must be positive, got {distance_m}")


def outcome(method, distance_m):
    with np.errstate(all="ignore"):
        try:
            value = method(distance_m)
        except (ValueError, OverflowError) as exc:
            return type(exc).__name__, str(exc)
    return np.shape(value), np.asarray(value, dtype=float).tobytes()


class TestDistanceCheck:
    """Scalars take one comparison; every form still fails or passes as before."""

    @pytest.mark.parametrize("method", ["local_gain", "longhaul_gain"])
    @pytest.mark.parametrize("d", DISTANCES, ids=repr)
    def test_scalar_and_array_paths_agree(self, monkeypatch, method, d):
        gain = getattr(PAPER_CONSTANTS, method)
        fast = [(name, outcome(gain, x)) for name, x in distance_forms(d)]
        monkeypatch.setattr(constants_mod, "_check_distance", np_any_check)
        reference = [(name, outcome(gain, x)) for name, x in distance_forms(d)]
        assert fast == reference
        # Every form of d <= 0 raises, and nothing else (NaN passes).
        assert all((result[0] == "ValueError") == (d <= 0.0) for _, result in fast)


class TestAlpha:
    def test_bpsk_value(self):
        # alpha(1) = 3(sqrt(2)-1) / (0.35 (sqrt(2)+1))
        expected = 3 * (np.sqrt(2) - 1) / (0.35 * (np.sqrt(2) + 1))
        assert PAPER_CONSTANTS.peak_to_average_alpha(1) == pytest.approx(expected)

    def test_increases_with_constellation(self):
        alphas = [PAPER_CONSTANTS.peak_to_average_alpha(b) for b in range(1, 10)]
        assert all(a2 > a1 for a1, a2 in zip(alphas, alphas[1:]))

    def test_asymptote(self):
        # as M -> inf, alpha -> 3/0.35
        assert PAPER_CONSTANTS.peak_to_average_alpha(20) == pytest.approx(
            3 / 0.35, rel=0.01
        )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            PAPER_CONSTANTS.peak_to_average_alpha(0)


class TestImmutability:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PAPER_CONSTANTS.kappa = 2.0

    def test_replace_makes_new_instance(self):
        modified = PAPER_CONSTANTS.replace(noise_figure_db=6.0)
        assert modified.noise_figure_db == 6.0
        assert PAPER_CONSTANTS.noise_figure_db == 10.0
        assert modified is not PAPER_CONSTANTS

    def test_default_constructor_matches_paper(self):
        assert SystemConstants() == PAPER_CONSTANTS
