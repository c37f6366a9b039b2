"""Constellation-size optimization.

Every algorithm in the paper carries the step "SU nodes use the table of
``e_bar_b`` to determine constellation size ``b`` which minimizes"
the relevant energy.  :func:`best_over_b` performs that discrete search
over ``b`` in 1..16 (the range swept in Section 6) on a ``(|b|, n)`` grid
of the objective, one column per point, for the three objectives used by
the experiments:

* minimize long-haul transmit energy at a fixed distance (the overlay
  relay links and the direct-link budget of the overlay analysis);
* maximize link distance under an energy budget (overlay, Figure 6);
* minimize the total PA energy (underlay noise-floor accounting).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import check_finite

__all__ = ["DEFAULT_B_RANGE", "best_over_b"]

#: The paper's constellation sweep: "constellation size b varies from 1 to 16".
DEFAULT_B_RANGE: Tuple[int, ...] = tuple(range(1, 17))


def best_over_b(
    values: np.ndarray, maximize: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """The best constellation size at each point of a ``(|b|, n)`` grid.

    Row ``k`` holds the objective of the ``k``-th candidate size at each of
    ``n`` points.  NaN marks an infeasible size (a refused ``e_bar_b``);
    when minimizing, so does an infinite objective (an overflowing energy).
    Returns, per point, the winning row index and its value; the first
    best row wins.  A point with no feasible size raises ``ValueError("no
    feasible constellation size in the given range")``, and an infinite
    maximum raises ``ValueError("value must be finite, got inf")``.
    """
    if maximize:
        skipped = -np.inf
        scored = np.where(np.isnan(values), skipped, values)
        rows, best = scored.argmax(axis=0), scored.max(axis=0)
    else:
        skipped = np.inf
        scored = np.where(np.isfinite(values), values, skipped)
        rows, best = scored.argmin(axis=0), scored.min(axis=0)
    if not np.isfinite(best).all():
        if (best == skipped).any():
            raise ValueError("no feasible constellation size in the given range")
        check_finite(float(best[~np.isfinite(best)][0]), "value")
    return rows, best
