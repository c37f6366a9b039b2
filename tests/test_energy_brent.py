"""The in-tree Brent solver against ``scipy.optimize.brentq``, bit for bit.

``repro.energy.ebar._brentq`` is a port of scipy's Brent routine; scipy is
imported here only, as the reference.  Roots are compared through
``float.hex``, and the points each solver evaluates are compared too, so a
port that reached the same root by another path would still fail.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from repro.energy import ebar as ebar_module
from repro.energy.ebar import DEFAULT_N0, _brentq, average_ber, solve_ebar
from repro.modulation.theory import mqam_ber_coefficients

PAIRS = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (4, 4), (8, 8), (16, 16)]
TARGETS = [1e-9, 1e-7, 1e-5, 1e-4, 1e-3, 5e-3, 0.05, 0.2]


def objective_and_bracket(p, b, mt, mr, convention):
    """``solve_ebar``'s objective, through ``average_ber``, and its bracket."""

    def objective(log10_e):
        return float(average_ber(10.0**log10_e, b, mt, mr, DEFAULT_N0, convention)) - p

    lo, hi = -26.0, -8.0
    while objective(lo) < 0.0 and lo > -60.0:
        lo -= 5.0
    while objective(hi) > 0.0 and hi < 10.0:
        hi += 5.0
    return objective, lo, hi


def recorded(f, seen):
    def wrapper(x):
        seen.append(x.hex())
        return f(x)

    return wrapper


def both(f, a, b, xtol):
    """Each solver's outcome (root hex or exception type) and evaluated points."""
    outcomes = []
    for solver in ("scipy", "port"):
        seen = []
        g = recorded(f, seen)
        try:
            if solver == "scipy":
                root = brentq(g, a, b, xtol=xtol)
            else:
                root = _brentq(g, a, b, g(a), g(b), xtol)
            outcome = root.hex()
        except (ValueError, RuntimeError) as exc:
            outcome = type(exc).__name__
        outcomes.append((outcome, seen))
    return outcomes


class TestSolveEbarGrid:
    @pytest.mark.parametrize("convention", ["paper", "diversity_only"])
    @pytest.mark.parametrize("b", range(1, 17))
    def test_roots_equal_scipy(self, convention, b):
        """Both conventions, b 1-16, (mt, mr) up to 16x16, p from 1e-9 to 0.2."""
        rng = random.Random(b)
        pairs = PAIRS + [(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(2)]
        ceiling = mqam_ber_coefficients(b)[0] / 2.0
        solved = 0
        for mt, mr in pairs:
            for p in TARGETS:
                if p >= ceiling:
                    continue
                objective, lo, hi = objective_and_bracket(p, b, mt, mr, convention)
                reference = brentq(objective, lo, hi, xtol=1e-12)
                port = _brentq(objective, lo, hi, objective(lo), objective(hi), 1e-12)
                assert port.hex() == reference.hex(), (p, b, mt, mr)
                ebar = solve_ebar(p, b, mt, mr, convention=convention)
                assert ebar.hex() == (10.0**reference).hex(), (p, b, mt, mr)
                solved += 1
        assert solved >= len(pairs)

    def test_infeasible_raises_the_same_type(self):
        objective, lo, hi = objective_and_bracket(1e-3, 1000, 2, 2, "paper")
        with pytest.raises(ValueError):
            brentq(objective, lo, hi, xtol=1e-12)
        with pytest.raises(ValueError):
            _brentq(objective, lo, hi, objective(lo), objective(hi), 1e-12)


@pytest.fixture
def closed_form_calls(monkeypatch):
    """The ``c`` of every closed-form evaluation in ``ebar``, as hex."""
    seen = []
    real = ebar_module.rayleigh_diversity_avg_qfunc

    def counting(c, k):
        seen.append(float(c).hex())
        return real(c, k)

    monkeypatch.setattr(ebar_module, "rayleigh_diversity_avg_qfunc", counting)
    return seen


class TestSolveEbarEvaluations:
    @pytest.mark.parametrize(
        "p,b,mt,mr", [(1e-3, 2, 2, 2), (1e-9, 16, 1, 1), (0.05, 4, 16, 16), (1e-3, 1, 1, 1)]
    )
    def test_bracket_and_scipys_points_once_each(self, closed_form_calls, p, b, mt, mr):
        """The bracket's points and scipy's own evaluations, each exactly once:
        the bracket ends' values reach the solver instead of being recomputed.
        ``solve_ebar`` checks its arguments once and evaluates the closed
        form itself, at the same ``c`` that ``average_ber`` computes."""
        objective, lo, hi = objective_and_bracket(p, b, mt, mr, "paper")
        brentq(objective, lo, hi, xtol=1e-12)
        expected = sorted(set(closed_form_calls))
        closed_form_calls.clear()
        solve_ebar(p, b, mt, mr)
        assert sorted(closed_form_calls) == expected


class TestSyntheticFunctions:
    SHAPES = {
        "tanh": lambda c: lambda x: math.tanh(c[1] * (x - c[0])) + c[2] * 1e-3,
        "cubic": lambda c: lambda x: c[1] * (x - c[0]) ** 3 + c[2] * (x - c[0]),
        "step": lambda c: lambda x: -1.0 if x < c[0] else (1.0 if x > c[0] else 0.0),
        "exp": lambda c: lambda x: math.exp(c[1] * x) - math.exp(c[1] * c[0]),
        "tiny": lambda c: lambda x: 1e-250 * math.atan(x - c[0]),
        "power": lambda c: lambda x: (x - c[0]) * abs(x - c[0]) ** c[1],
    }

    @given(
        st.sampled_from(sorted(SHAPES)),
        st.floats(-3.0, 3.0),
        st.floats(0.1, 5.0),
        st.floats(0.5, 4.0),
        st.floats(-10.0, 0.0),
        st.floats(0.0, 10.0),
        st.booleans(),
        st.sampled_from([1e-12, 2e-12, 1e-6, 0.1, 0.5, 1e-300]),
    )
    # A wide xtol reaches the ``3|sbis| - delta`` limit of the step test;
    # values near 1e-250 underflow the inverse-quadratic denominator to 0.
    @example("tiny", 0.0, 1.0, 1.0, -1.0, 3.0, False, 1e-300)
    @example("tanh", 2.933907744642792, 1.8833574376814086, 3.0377378278427623,
             -2.8228939979604295, 8.086184725280406, False, 0.1)
    @example("exp", 2.83711636534572, 0.8779748689806944, 1.0080596387615457,
             -8.383648585198994, 3.56077572985821, True, 0.5)
    @settings(max_examples=300, deadline=None)
    def test_same_root_and_same_points(self, shape, c0, c1, c2, a, b, swap, xtol):
        f = self.SHAPES[shape]((c0, c1, c2))
        if swap:
            a, b = b, a
        scipy_outcome, port_outcome = both(f, a, b, xtol)
        assert port_outcome == scipy_outcome


class TestErrorPaths:
    def test_same_sign_ends(self):
        scipy_outcome, port_outcome = both(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)
        assert port_outcome == scipy_outcome
        assert port_outcome[0] == "ValueError"

    @pytest.mark.parametrize("where", ["a", "b", "inside"])
    def test_nan_value(self, where):
        def f(x):
            if (where == "a" and x == -1.0) or (where == "b" and x == 2.0):
                return math.nan
            if where == "inside" and -1.0 < x < 2.0:
                return math.nan
            return x

        scipy_outcome, port_outcome = both(f, -1.0, 2.0, 1e-12)
        assert port_outcome[0] == scipy_outcome[0] == "ValueError"

    @pytest.mark.parametrize("xtol", [0.0, -1e-12])
    def test_non_positive_xtol(self, xtol):
        scipy_outcome, port_outcome = both(lambda x: x, -1.0, 2.0, xtol)
        assert port_outcome[0] == scipy_outcome[0] == "ValueError"

    def test_no_convergence_in_100_iterations(self):
        def step(x):
            return -1.0 if x < 0.3 else 1.0

        scipy_outcome, port_outcome = both(step, -1e300, 1e300, 1e-300)
        assert port_outcome == scipy_outcome
        assert port_outcome[0] == "RuntimeError"

    @pytest.mark.parametrize(
        "f,a,b",
        [(abs, 0.0, 1.0), (abs, -1.0, 0.0), (abs, -0.0, 1.0), (lambda x: 0.0, -1.0, 2.0)],
    )
    def test_exact_zero_at_an_end_is_returned(self, f, a, b):
        scipy_outcome, port_outcome = both(f, a, b, 1e-12)
        assert port_outcome == scipy_outcome
