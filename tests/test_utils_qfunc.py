"""Q-function tests: anchors, symmetry, inverse, bounds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.qfunc import inv_qfunc, qfunc


class TestValues:
    def test_q_of_zero(self):
        assert qfunc(0.0) == pytest.approx(0.5)

    def test_textbook_anchor(self):
        # Q(1.96) ~ 0.025 (the 95% two-sided normal quantile)
        assert qfunc(1.96) == pytest.approx(0.025, abs=5e-4)

    def test_deep_tail_no_underflow(self):
        # naive 1 - Phi(x) would return exactly 0 long before x = 35
        assert 0.0 < qfunc(35.0) < 1e-200

    def test_symmetry(self):
        assert qfunc(-1.3) == pytest.approx(1.0 - qfunc(1.3))

    def test_broadcasts(self):
        out = qfunc(np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)


class TestInverse:
    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_roundtrip(self, p):
        assert qfunc(inv_qfunc(p)) == pytest.approx(p, rel=1e-6)

    def test_median(self):
        assert inv_qfunc(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_boundaries(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                inv_qfunc(bad)


class TestBounds:
    @given(st.floats(min_value=0.0, max_value=20.0))
    def test_chernoff_dominates(self, x):
        # Chernoff: Q(x) <= exp(-x^2 / 2) for x >= 0
        assert qfunc(x) <= np.exp(-(x**2) / 2.0) + 1e-15

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_q_in_unit_interval(self, x):
        assert 0.0 <= qfunc(x) <= 1.0
