"""Solving for ``e_bar_b(p, b, mt, mr)`` — formulas (5) and (6).

The paper defines ``e_bar_b`` implicitly: it is the transmit-side required
received energy per bit such that the *average* BER over the Rayleigh MIMO
channel equals the target ``p``::

    p = E_H[ (4/b)(1 - 2^{-b/2}) Q( sqrt( 3b/(M-1) * gamma_b ) ) ]     (b >= 2)
    p = E_H[ Q( sqrt( 2 gamma_b ) ) ]                                  (b = 1)
    gamma_b = ||H||_F^2 * e_bar_b / (N_0 * mt)

With i.i.d. unit-power complex Gaussian entries, ``G = ||H||_F^2`` is
Gamma(k = mt*mr, 1)-distributed, so the expectation has the exact classical
closed form implemented in
:func:`repro.modulation.theory.rayleigh_diversity_avg_qfunc`.  The solver
inverts the (strictly monotone) map ``e_bar_b -> average BER`` with Brent's
method in log10 space, by :func:`_brentq`: a port of
``scipy.optimize.brentq`` that returns the same root, bit for bit, and
takes the bracket ends' values from the bracketing loop instead of
evaluating them again.  With the root-finder here and the closed form's
binomials from :func:`repro.modulation.theory.binomial_row`, a process
that imports :mod:`repro` loads no ``scipy`` module until a diversity
order ``mt * mr`` past 20 asks for one (``docs/performance.md`` section 6
has what those imports cost).

Validation against the paper (Section 6.2 text): for ``p = 0.001, b = 2``
the paper quotes ``e_bar_b = 1.90e-18`` (SISO) and ``3.20e-20`` (2x3 MIMO);
this solver produces 2.0e-18 and 2.1e-20 — same orders, same ~100x
SISO-to-MIMO gap (the residual offset is an unstated normalization in the
paper's tabulation; see DESIGN.md section 6).
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Tuple, Union

import numpy as np

from repro.channel.rayleigh import rayleigh_mimo_channel
from repro.modulation.theory import (
    binomial_row,
    instantaneous_ber,
    mqam_ber_coefficients,
    rayleigh_diversity_avg_qfunc,
)
from repro.utils.rng import RngLike
from repro.utils.units import (
    Joules,
    JoulesArray,
    JoulesLike,
    WattsPerHz,
    WattsPerHzLike,
    dbm_per_hz_to_watts_per_hz,
)
from repro.utils.validation import check_positive, check_positive_int, check_probability

ArrayLike = Union[float, np.ndarray]

__all__ = ["average_ber", "solve_ebar", "solve_ebar_batch", "average_ber_monte_carlo"]

#: Default receiver-referred noise PSD N_0 = -171 dBm/Hz in W/Hz.
DEFAULT_N0: WattsPerHz = float(dbm_per_hz_to_watts_per_hz(-171.0))


#: Valid ``e_bar_b`` normalization conventions (see :func:`average_ber`).
CONVENTIONS = ("paper", "diversity_only")


def average_ber(
    ebar: JoulesLike,
    b: int,
    mt: int,
    mr: int,
    n0: WattsPerHz = DEFAULT_N0,
    convention: str = "paper",
) -> ArrayLike:
    """Average BER over the Rayleigh MIMO channel at received energy ``ebar``.

    Parameters
    ----------
    ebar:
        Required received energy per bit [J]; broadcasts over arrays.
    b:
        Constellation size in bits/symbol (>= 1).
    mt, mr:
        Cooperative transmit / receive node counts (>= 1).
    n0:
        Noise PSD [W/Hz].
    convention:
        ``"paper"`` uses the printed formula
        ``gamma_b = ||H||_F^2 e_bar_b / (N_0 mt)`` — the per-antenna power
        split appears inside ``gamma_b`` *and* again as the ``1/mt`` factor
        of formula (3).  ``"diversity_only"`` drops the ``mt`` divisor
        (``gamma_b = ||H||_F^2 e_bar_b / N_0``), making the table symmetric
        in (mt, mr).  The paper's Figure 6 numbers (D3/D2 = sqrt(m)) are
        only consistent with the symmetric table; see EXPERIMENTS.md for
        the full analysis.  Both conventions produce identical diversity
        *orders* and identical orderings everywhere except that asymmetry.
    """
    b = check_positive_int(b, "b")
    mt = check_positive_int(mt, "mt")
    mr = check_positive_int(mr, "mr")
    n0 = check_positive(n0, "n0")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    e = np.asarray(ebar, dtype=float)
    if np.any(e < 0.0):
        raise ValueError("ebar must be non-negative")
    a, g = mqam_ber_coefficients(b)
    # Instantaneous BER is a*Q(sqrt(g * gamma_b)); writing the argument as
    # 2*c*G puts it in the canonical closed-form shape.
    divisor = n0 * mt if convention == "paper" else n0
    c = g * e / (2.0 * divisor)
    return a * rayleigh_diversity_avg_qfunc(c, mt * mr)


def solve_ebar(
    p: float,
    b: int,
    mt: int,
    mr: int,
    n0: WattsPerHz = DEFAULT_N0,
    xtol: float = 1e-12,
    convention: str = "paper",
) -> Joules:
    """Invert :func:`average_ber`: the ``e_bar_b`` achieving target BER ``p``.

    Raises
    ------
    ValueError
        If ``p`` is not attainable below the modulation's zero-SNR BER
        ceiling ``a/2`` (e.g. asking 16-QAM for BER 0.45), or if no
        ``e_bar_b`` in the widened search bracket reaches ``p`` (e.g. a
        ``b=1000`` constellation at BER 1e-3).
    """
    p = check_probability(p, "p")
    a, g = mqam_ber_coefficients(b)
    ceiling = a / 2.0  # BER at ebar -> 0 (Q(0) = 1/2)
    if p >= ceiling:
        raise ValueError(
            f"target BER {p} is not below the zero-energy ceiling {ceiling:.4g} "
            f"for b={b}; any energy achieves it"
        )
    # average_ber's checks, once: the objective below is its arithmetic.
    b = check_positive_int(b, "b")
    mt = check_positive_int(mt, "mt")
    mr = check_positive_int(mr, "mr")
    n0 = check_positive(n0, "n0")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    divisor = n0 * mt if convention == "paper" else n0
    k = mt * mr

    def objective(log10_e: float) -> float:
        c = g * 10.0**log10_e / (2.0 * divisor)
        return float(a * rayleigh_diversity_avg_qfunc(c, k)) - p

    lo, hi = -26.0, -8.0
    # Expand the bracket defensively for extreme (p, n0) combinations.
    f_lo = objective(lo)
    while f_lo < 0.0 and lo > -60.0:
        lo -= 5.0
        f_lo = objective(lo)
    f_hi = objective(hi)
    while f_hi > 0.0 and hi < 10.0:
        hi += 5.0
        f_hi = objective(hi)
    if f_lo < 0.0 or f_hi > 0.0:
        raise ValueError("failed to bracket the e_bar_b root")
    root = _brentq(objective, lo, hi, f_lo, f_hi, xtol)
    return float(10.0**root)


#: ``scipy.optimize.brentq``'s defaults: the relative tolerance ``4 eps``
#: and the iteration cap.
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    fa: float,
    fb: float,
    xtol: float,
) -> float:
    """A root of ``f`` in ``[xa, xb]`` by Brent's method; ``fa, fb = f(xa), f(xb)``.

    Step for step the C routine behind ``scipy.optimize.brentq`` at its
    default ``rtol`` and ``maxiter``, so it evaluates ``f`` at the same
    points and returns the same float; the caller passes the end values
    it already computed instead of ``f`` evaluating them again.  Raises
    ``ValueError`` for ``xtol <= 0``, for ends of the same sign and for a
    NaN value of ``f``, and ``RuntimeError`` after ``_BRENT_MAXITER``
    iterations, as scipy does.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if math.isnan(fa) or math.isnan(fb):
        raise ValueError("f(a) or f(b) is NaN; solver cannot continue.")
    if fa == 0.0:
        return xa
    if fb == 0.0:
        return xb
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    # cur is the best estimate, pre the previous one and blk the far end of
    # the bracket; scur and spre are the last two steps.
    xpre, fpre, xcur, fcur = xa, fa, xb, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # A zero (say, underflowed) denominator: C's quotient is inf
                # or NaN, which the step test below rejects, so scipy bisects.
                stry = math.inf
            limit = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur:f}")


def _mqam_coefficients_array(b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.modulation.theory.mqam_ber_coefficients`.

    ``b`` is an integer array; returns float arrays ``(a, g)`` elementwise
    identical to the scalar helper (same operation order, so results are
    bit-equal where the scalar path is used).
    """
    bf = b.astype(float)
    with np.errstate(over="ignore"):
        a_qam = 4.0 / bf * (1.0 - 2.0 ** (-bf / 2.0))
        g_qam = 3.0 * bf / (2.0**bf - 1.0)
    a = np.where(b == 1, 1.0, a_qam)
    g = np.where(b == 1, 2.0, g_qam)
    return a, g


def _rayleigh_diversity_avg_qfunc_array(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``E[Q(sqrt(2 c G))]`` with *per-element* diversity order ``k``.

    Same closed form as
    :func:`repro.modulation.theory.rayleigh_diversity_avg_qfunc`, evaluated
    for an array of diversity orders at once: each element reads its
    :func:`~repro.modulation.theory.binomial_row` padded with zeros to
    ``k.max()`` terms (adding exact zeros does not change the sum).
    """
    mu = np.sqrt(c / (1.0 + c))
    half_minus = (1.0 - mu) / 2.0
    half_plus = (1.0 + mu) / 2.0
    orders, index = np.unique(k, return_inverse=True)
    rows = np.zeros((orders.size, int(orders[-1])))
    for r, order in enumerate(orders.tolist()):
        rows[r, :order] = binomial_row(order)
    powers = half_plus[..., None] ** np.arange(rows.shape[1])
    series = np.sum(rows[index.reshape(k.shape)] * powers, axis=-1)
    return half_minus**k * series


def solve_ebar_batch(
    p: ArrayLike,
    b: ArrayLike,
    mt: ArrayLike,
    mr: ArrayLike,
    n0: WattsPerHzLike = DEFAULT_N0,
    xtol: float = 1e-12,
    convention: str = "paper",
) -> JoulesArray:
    """Vectorized :func:`solve_ebar`: all grid points converge simultaneously.

    Broadcasts ``p``, ``b``, ``mt``, ``mr`` and ``n0`` against each other and
    inverts the average-BER relation for every point at once with a bracketed
    bisection in log10 space (the same ``[-26, -8]`` starting bracket and the
    same defensive expansion as the scalar solver).  This is the kernel the
    "Preprocessing" table build runs on: one call replaces thousands of
    per-point Brent root-finds.

    Unlike the scalar solver, *infeasible* points — a target BER at or above
    the modulation's zero-energy ceiling ``a/2``, outside ``(0, 1)``, or (for
    pathological ``n0``) unbracketable — are masked to NaN instead of
    raising, so one call can cover a mixed feasible/infeasible grid.

    Parameters
    ----------
    p, b, mt, mr, n0:
        Broadcastable arrays (or scalars) of BER targets, constellation
        sizes, node counts and noise PSDs.  ``b``, ``mt``, ``mr`` must be
        integer-valued and >= 1; ``n0`` must be positive.
    xtol:
        Absolute tolerance on the log10-space root (matches the scalar
        solver's Brent tolerance; the two agree to ~1e-11 relative).
    convention:
        ``e_bar_b`` normalization, as in :func:`average_ber`.

    Returns
    -------
    ``e_bar_b`` as a float ndarray of the broadcast shape (0-d for all-scalar
    input), with NaN at infeasible points.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    p_a, b_a, mt_a, mr_a, n0_a = np.broadcast_arrays(
        np.asarray(p, dtype=float),
        np.asarray(b),
        np.asarray(mt),
        np.asarray(mr),
        np.asarray(n0, dtype=float),
    )
    for name, arr in (("b", b_a), ("mt", mt_a), ("mr", mr_a)):
        if not np.issubdtype(arr.dtype, np.number) or np.any(arr != np.floor(arr)):
            raise ValueError(f"{name} must be integer-valued")
        if np.any(arr < 1):
            raise ValueError(f"{name} must be >= 1")
    if np.any(n0_a <= 0.0) or not np.all(np.isfinite(n0_a)):
        raise ValueError("n0 must be strictly positive and finite")

    shape = p_a.shape
    p_f = p_a.reshape(-1)
    b_f = b_a.reshape(-1).astype(int)
    mt_f = mt_a.reshape(-1).astype(int)
    mr_f = mr_a.reshape(-1).astype(int)
    n0_f = n0_a.reshape(-1)

    a_coef, g_coef = _mqam_coefficients_array(b_f)
    feasible = (p_f > 0.0) & (p_f < 1.0) & (p_f < a_coef / 2.0)

    out = np.full(p_f.shape, np.nan)
    if np.any(feasible):
        idx = np.nonzero(feasible)[0]
        target = p_f[idx]
        a_s = a_coef[idx]
        divisor = n0_f[idx] * mt_f[idx] if convention == "paper" else n0_f[idx]
        scale = g_coef[idx] / (2.0 * divisor)  # c = scale * ebar
        k = mt_f[idx] * mr_f[idx]

        def objective(log10_e: np.ndarray) -> np.ndarray:
            c = scale * 10.0**log10_e
            return a_s * _rayleigh_diversity_avg_qfunc_array(c, k) - target

        lo = np.full(idx.shape, -26.0)
        hi = np.full(idx.shape, -8.0)
        # Expand the bracket defensively, exactly as the scalar solver does.
        for _ in range(8):
            need = (objective(lo) < 0.0) & (lo > -60.0)
            if not need.any():
                break
            lo[need] -= 5.0
        for _ in range(4):
            need = (objective(hi) > 0.0) & (hi < 10.0)
            if not need.any():
                break
            hi[need] += 5.0
        bracketed = (objective(lo) >= 0.0) & (objective(hi) <= 0.0)

        # Bisection: the objective is strictly decreasing in log10(e).
        for _ in range(512):
            if not np.any((hi - lo) > xtol):
                break
            mid = 0.5 * (lo + hi)
            above = objective(mid) > 0.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        root = 0.5 * (lo + hi)
        out[idx] = np.where(bracketed, 10.0**root, np.nan)
    return out.reshape(shape)


def average_ber_monte_carlo(
    ebar: Joules,
    b: int,
    mt: int,
    mr: int,
    n0: WattsPerHz = DEFAULT_N0,
    n_channels: int = 200_000,
    rng: RngLike = None,
) -> float:
    """Monte-Carlo estimate of :func:`average_ber` from explicit ``H`` draws.

    Cross-check used by the test suite: draws ``n_channels`` Rayleigh MIMO
    matrices, evaluates the instantaneous BER kernel at each ``gamma_b`` and
    averages.  Agrees with the closed form to Monte-Carlo accuracy.
    """
    check_positive(ebar, "ebar")
    h = rayleigh_mimo_channel(mt, mr, n_channels, rng)
    frob = np.sum(np.abs(h) ** 2, axis=(1, 2))
    gamma_b = frob * ebar / (n0 * mt)
    return float(np.mean(instantaneous_ber(gamma_b, b)))
