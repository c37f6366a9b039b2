"""AWGN tests: variance and complex circularity."""

import numpy as np
import pytest

from repro.channel.awgn import awgn, complex_gaussian


class TestComplexGaussian:
    def test_mean_power(self, rng):
        x = complex_gaussian(200_000, variance=2.5, rng=rng)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(2.5, rel=0.02)

    def test_circular_symmetry(self, rng):
        x = complex_gaussian(200_000, variance=1.0, rng=rng)
        assert np.var(x.real) == pytest.approx(np.var(x.imag), rel=0.03)
        # real/imag uncorrelated
        assert np.mean(x.real * x.imag) == pytest.approx(0.0, abs=0.01)

    def test_zero_variance(self, rng):
        x = complex_gaussian(10, variance=0.0, rng=rng)
        np.testing.assert_array_equal(x, 0.0)

    def test_rejects_negative_variance(self, rng):
        with pytest.raises(ValueError):
            complex_gaussian(10, variance=-1.0, rng=rng)


class TestAwgn:
    def test_complex_signal_noise_power(self, rng):
        sig = np.ones(100_000, dtype=complex)
        noisy = awgn(sig, noise_variance=0.5, rng=rng)
        assert np.mean(np.abs(noisy - sig) ** 2) == pytest.approx(0.5, rel=0.03)

    def test_real_signal_stays_real(self, rng):
        sig = np.zeros(1000)
        noisy = awgn(sig, noise_variance=1.0, rng=rng)
        assert not np.iscomplexobj(noisy)
        assert np.var(noisy) == pytest.approx(1.0, rel=0.15)

    def test_zero_variance_identity(self, rng):
        sig = np.arange(5, dtype=complex)
        np.testing.assert_array_equal(awgn(sig, 0.0, rng), sig)

    def test_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            awgn(np.zeros(3), -0.1, rng)
