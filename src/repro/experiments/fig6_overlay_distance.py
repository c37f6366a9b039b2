"""Figure 6 — how far relaying SUs can sit from the primary users.

Sweep: direct distance D1 in 150..350 m, m in {2, 3} cooperating SUs,
bandwidth in {20 kHz, 40 kHz}; direct BER target 0.005, relayed target
0.0005 (10x better), constellation size optimized in 1..16 — exactly the
Section 6.1 protocol.

Both e_bar_b conventions are reported (see
:func:`repro.energy.ebar.average_ber` and EXPERIMENTS.md): the paper's
quoted example (D1 = 250, m = 3, B = 40k => D2 ≈ 235, D3 ≈ 406, ratio
sqrt(3)) is only consistent with the (mt, mr)-symmetric "diversity_only"
table, which is therefore the headline convention for the D3 > D2 claim.
"""

from __future__ import annotations

import numpy as np

from repro.core.overlay import OverlaySystem
from repro.energy.model import EnergyModel
from repro.experiments.registry import ExperimentResult

__all__ = ["run", "check"]

D1_VALUES = (150.0, 200.0, 250.0, 300.0, 350.0)
M_VALUES = (2, 3)
BANDWIDTHS = (20e3, 40e3)
CONVENTIONS = ("paper", "diversity_only")


def _cell_rows(convention, bw, m, d1_values):
    """Rows of one (convention, B, m) cell; the D1 axis is swept vectorized."""
    system = OverlaySystem(EnergyModel(ebar_convention=convention))
    return [
        (
            convention,
            result.bandwidth,
            result.m,
            result.d1,
            result.e1,
            result.b_direct,
            result.d2,
            result.d3,
        )
        for result in system.distance_analyses(d1_values, m, bw)
    ]


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate the Figure 6(a)/(b) series (deterministic; seed unused)."""
    d1_values = D1_VALUES[::2] if fast else D1_VALUES
    rows = [
        row
        for convention in CONVENTIONS
        for bw in BANDWIDTHS
        for m in M_VALUES
        for row in _cell_rows(convention, bw, m, d1_values)
    ]
    return ExperimentResult(
        experiment_id="fig6",
        title="Distance of relaying SUs from Pt (D2, Fig 6a) and Pr (D3, Fig 6b)",
        columns=("convention", "B", "m", "D1", "E1_j_per_bit", "b", "D2_m", "D3_m"),
        rows=rows,
        paper_values={
            "example": "D1=250, m=3, B=40k -> D2=235 m, D3=406 m (ratio 1.73)",
            "shape": "distances grow with D1 and B; D3 > D2; m=3 >= m=2 in Fig 6b",
        },
        notes=(
            "Both e_bar_b conventions shown; the diversity_only rows carry the "
            "paper's D3 > D2 asymmetry (ratio ~sqrt(m)), the paper rows make "
            "D2 ~ D3.  Absolute distances exceed the paper's by ~3x for both "
            "conventions (the paper's unpublished e_bar_b tables were more "
            "conservative); every ordering and trend matches."
        ),
    )


def check(result: ExperimentResult) -> None:
    """Shape assertions for Figure 6."""
    for convention in CONVENTIONS:
        for bw in BANDWIDTHS:
            for m in M_VALUES:
                rows = result.select(convention=convention, B=bw, m=m)
                assert rows, f"missing rows for {convention}/B={bw}/m={m}"
                d1s = [r[3] for r in rows]
                d2s = [r[6] for r in rows]
                d3s = [r[7] for r in rows]
                # distances grow with the direct distance D1
                assert all(np.diff(d2s) > 0), f"D2 not increasing in D1 ({convention}, m={m})"
                assert all(np.diff(d3s) > 0), f"D3 not increasing in D1 ({convention}, m={m})"
                # relays sit far away: comparable to or beyond D1 itself
                assert all(d2 > d1 for d1, d2 in zip(d1s, d2s)), "relays not far from Pt"

    # wider bandwidth -> longer (never shorter) distances.  In this model
    # the circuit terms of the direct budget and the SIMO link cancel
    # exactly when both optimize to the same b, making D2 B-independent;
    # D3 carries the reception circuit energy e^{MIMOr} and therefore
    # strictly gains from bandwidth (see EXPERIMENTS.md).
    for convention in CONVENTIONS:
        for m in M_VALUES:
            lo = result.select(convention=convention, B=BANDWIDTHS[0], m=m)
            hi = result.select(convention=convention, B=BANDWIDTHS[1], m=m)
            for r_lo, r_hi in zip(lo, hi):
                assert r_hi[6] >= r_lo[6] * 0.999, (
                    f"D2 shrank with bandwidth ({convention}, m={m}, D1={r_lo[3]})"
                )
                assert r_hi[7] > r_lo[7], (
                    f"D3 did not gain from bandwidth ({convention}, m={m}, D1={r_lo[3]})"
                )

    # diversity_only (the convention matching the paper's printed numbers):
    # D3 > D2 with ratio approaching sqrt(m)
    for m in M_VALUES:
        for bw in BANDWIDTHS:
            for row in result.select(convention="diversity_only", B=bw, m=m):
                d2, d3 = row[6], row[7]
                ratio = d3 / d2
                # sqrt(m) from the MISO power sharing, dragged down by the
                # relay's reception energy (strongest at small D1/B where
                # circuit energy is a larger budget share)
                floor = 1.0 + 0.25 * (np.sqrt(m) - 1.0)
                assert ratio > floor, f"D3/D2={ratio:.2f} below {floor:.2f} (m={m})"
                assert ratio < np.sqrt(m) * 1.05, f"D3/D2={ratio:.2f} exceeds sqrt(m)"

    # Fig 6(b): m=3 relays reach at least as far as m=2 (paper: true for
    # D1 > 170 m; in our table it holds throughout)
    for convention in CONVENTIONS:
        for bw in BANDWIDTHS:
            m2 = result.select(convention=convention, B=bw, m=2)
            m3 = result.select(convention=convention, B=bw, m=3)
            for r2, r3 in zip(m2, m3):
                if r2[3] > 170.0:
                    assert r3[7] >= r2[7] * 0.999, (
                        f"m=3 D3 below m=2 at D1={r2[3]} ({convention}, B={bw})"
                    )
