"""Log-normal shadowing tests."""

import numpy as np
import pytest

from repro.channel.shadowing import LogNormalShadowing


class TestSampling:
    def test_db_statistics(self, rng):
        model = LogNormalShadowing(sigma_db=6.0)
        samples = model.sample_db(100_000, rng=rng)
        assert np.mean(samples) == pytest.approx(0.0, abs=0.1)
        assert np.std(samples) == pytest.approx(6.0, rel=0.02)

    def test_zero_sigma_degenerate(self, rng):
        model = LogNormalShadowing(sigma_db=0.0)
        np.testing.assert_array_equal(model.sample_db(10, rng=rng), 0.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            LogNormalShadowing(sigma_db=-1.0)
