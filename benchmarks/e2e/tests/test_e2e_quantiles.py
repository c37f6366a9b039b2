import numpy as np
import pytest
from quantiles import median, percentile, tail


def test_percentile_matches_numpy_linear():
    values = list(np.random.default_rng(0).exponential(size=257))
    for q in (0.0, 10.0, 50.0, 90.0, 99.0, 100.0):
        assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_tail_needs_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert tail(values, 90.0) == pytest.approx(89.1)  # 10 samples (90..99) beyond
    assert tail(values[:90], 90.0) is None  # only 9 (81..89) beyond
    assert tail(values, 99.0) is None
    assert tail([float(v) for v in range(1000)], 99.0) == pytest.approx(989.01)


def test_tail_of_nothing_is_nothing():
    assert tail([], 50.0) is None
    with pytest.raises(ValueError):
        percentile([], 50.0)
