"""The closed form's binomials against ``scipy.special.comb``, bit for bit.

``repro.modulation.theory.binomial_row`` copies scipy's integer product
for C(k-1+i, i) with i < 20 and asks scipy only for i >= 20; scipy is
imported here as the reference.  Values are compared through
``float.hex``, and so are both closed forms against copies of themselves
built on scipy's ``comb``.
"""

import numpy as np
import pytest
from scipy import special

from repro.energy.ebar import _rayleigh_diversity_avg_qfunc_array, solve_ebar
from repro.modulation.theory import binomial_row, rayleigh_diversity_avg_qfunc


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def reference_scalar(c, k):
    """``rayleigh_diversity_avg_qfunc`` with scipy's ``comb``, op for op."""
    carr = np.asarray(c, dtype=float)
    mu = np.sqrt(carr / (1.0 + carr))
    half_minus = (1.0 - mu) / 2.0
    half_plus = (1.0 + mu) / 2.0
    i = np.arange(k)
    series = np.sum(special.comb(k - 1 + i, i) * half_plus[..., None] ** i, axis=-1)
    return half_minus**k * series


def reference_array(c, k):
    """The per-element closed form with scipy's ``comb`` over the padded grid."""
    mu = np.sqrt(c / (1.0 + c))
    half_minus = (1.0 - mu) / 2.0
    half_plus = (1.0 + mu) / 2.0
    i = np.arange(int(k.max()))
    binoms = special.comb(k[..., None] - 1 + i, i)
    powers = half_plus[..., None] ** i
    series = np.sum(np.where(i < k[..., None], binoms * powers, 0.0), axis=-1)
    return half_minus**k * series


def snrs(rng, size):
    """Per-unit-G SNRs from 1e-6 to 1e6, with an exact zero first."""
    c = rng.exponential(1.0, size) * 10.0 ** rng.uniform(-6.0, 6.0, size)
    c[0] = 0.0
    return c


class TestBinomialRow:
    def test_every_entry_up_to_k_256_equals_scipy(self):
        """All 32,896 entries, on both sides of scipy's switch at i = 20."""
        entries = 0
        for k in range(1, 257):
            i = np.arange(k)
            assert hexes(binomial_row(k)) == hexes(special.comb(k - 1 + i, i)), k
            entries += k
        assert entries == 32_896

    def test_memoized_and_read_only(self):
        row = binomial_row(21)
        assert binomial_row(21) is row
        with pytest.raises(ValueError):
            row[0] = 2.0


class TestClosedForms:
    @pytest.mark.parametrize("k", [1, 2, 7, 16, 19, 20, 21, 22, 25, 64, 256])
    def test_scalar_form_equals_the_scipy_reference(self, k):
        rng = np.random.default_rng(k)
        c = snrs(rng, 64)
        assert hexes(rayleigh_diversity_avg_qfunc(c, k)) == hexes(reference_scalar(c, k))
        for value in c[:8]:
            got = rayleigh_diversity_avg_qfunc(float(value), k)
            assert float(got).hex() == float(reference_scalar(float(value), k)).hex()

    @pytest.mark.parametrize("orders", [(1, 4, 16), (16, 19, 20, 21), (1, 20, 21, 22, 25), (2, 40, 64)])
    def test_array_form_equals_the_scipy_reference(self, orders):
        """Mixed diversity orders in one call, straddling k = 20/21."""
        rng = np.random.default_rng(len(orders) * 1000 + max(orders))
        k = rng.choice(np.array(orders), size=(9, 40))
        k.flat[0] = max(orders)
        c = snrs(rng, k.size).reshape(k.shape)
        assert hexes(_rayleigh_diversity_avg_qfunc_array(c, k)) == hexes(reference_array(c, k))


class TestPinnedRoots:
    @pytest.mark.parametrize(
        "mt,mr,expected",
        [(5, 5, "0x1.3f32b2f580e46p-67"), (16, 16, "0x1.69ee551989d45p-69")],
    )
    def test_roots_at_diversity_past_20_are_unchanged(self, mt, mr, expected):
        assert solve_ebar(1e-3, 2, mt, mr).hex() == expected
