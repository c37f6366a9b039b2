"""The paper's energy model (Section 2.3, formulas (1)-(6)).

Layout:

* :mod:`repro.energy.ebar` — the required received energy per bit
  ``e_bar_b(p, b, mt, mr)`` over the Rayleigh-faded STBC MIMO link, solved
  from the average-BER relations (5)/(6);
* :mod:`repro.energy.model` — :class:`EnergyModel`, the four per-bit energy
  formulas (local tx/rx, long-haul MIMO tx/rx) with PA/circuit splits;
* :mod:`repro.energy.optimize` — the constellation-size (``b``) search,
  one array pass over every size and point, used by every algorithm's
  "determine constellation size b which minimizes" step;
* :mod:`repro.energy.table` — the precomputed ``e_bar_b`` lookup table that
  Algorithms 1 and 2 load into each SU node ("Preprocessing"), built by one
  vectorized :func:`repro.energy.ebar.solve_ebar_batch` call and memoized
  per process.
"""

from repro.energy.ebar import (
    average_ber,
    average_ber_monte_carlo,
    solve_ebar,
    solve_ebar_batch,
)
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.energy.table import EbarTable

__all__ = [
    "average_ber",
    "average_ber_monte_carlo",
    "solve_ebar",
    "solve_ebar_batch",
    "EnergyModel",
    "EnergyBreakdown",
    "EbarTable",
]
