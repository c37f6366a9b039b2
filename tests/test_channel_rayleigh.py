"""Fading-channel draw tests: statistics of Rayleigh and Rician models."""

import numpy as np
import pytest
from scipy import stats

from repro.channel.rayleigh import rayleigh_mimo_channel, rician_mimo_channel


class TestRayleighMimo:
    def test_shape(self, rng):
        h = rayleigh_mimo_channel(3, 2, n_blocks=7, rng=rng)
        assert h.shape == (7, 2, 3)
        assert np.iscomplexobj(h)

    def test_unit_entry_power(self, rng):
        h = rayleigh_mimo_channel(2, 2, n_blocks=50_000, rng=rng)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_frobenius_norm_is_gamma(self, rng):
        """||H||_F^2 ~ Gamma(mt*mr, 1) — the distribution the e_bar_b
        closed form rests on (KS test at the 1% level)."""
        mt, mr = 2, 3
        h = rayleigh_mimo_channel(mt, mr, n_blocks=20_000, rng=rng)
        frob = np.sum(np.abs(h) ** 2, axis=(1, 2))
        _, pvalue = stats.kstest(frob, "gamma", args=(mt * mr,))
        assert pvalue > 0.01

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ValueError):
            rayleigh_mimo_channel(0, 1, rng=rng)
        with pytest.raises(ValueError):
            rayleigh_mimo_channel(1, 1, n_blocks=0, rng=rng)


class TestRician:
    def test_k_zero_is_rayleigh_power(self, rng):
        h = rician_mimo_channel(1, 1, k_factor=0.0, n_blocks=50_000, rng=rng)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)
        # zero mean (no LOS component)
        assert abs(np.mean(h)) < 0.02

    def test_unit_power_any_k(self, rng):
        h = rician_mimo_channel(2, 2, k_factor=5.0, n_blocks=50_000, rng=rng)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_los_fraction(self, rng):
        k = 4.0
        h = rician_mimo_channel(1, 1, k_factor=k, n_blocks=50_000, rng=rng)
        los_power = abs(np.mean(h)) ** 2
        assert los_power == pytest.approx(k / (k + 1.0), rel=0.05)

    def test_large_k_small_variance(self, rng):
        h = rician_mimo_channel(1, 1, k_factor=100.0, n_blocks=10_000, rng=rng)
        assert np.var(np.abs(h)) < 0.01

    def test_rejects_negative_k(self, rng):
        with pytest.raises(ValueError):
            rician_mimo_channel(1, 1, k_factor=-0.5, rng=rng)
