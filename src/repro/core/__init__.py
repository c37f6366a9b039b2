"""The paper's three cooperative MIMO paradigms.

* :mod:`repro.core.schemes` — the per-hop cooperative communication schemes
  (Section 2.2) and their per-role energy accounting;
* :mod:`repro.core.overlay` — Algorithm 1: SUs cooperatively relay primary
  traffic (SIMO in, MISO out) and the D1/D2/D3 distance analysis of
  Figure 6;
* :mod:`repro.core.underlay` — Algorithm 2: cooperative SU-to-SU transport
  under the peak-PA/noise-floor constraint of Figure 7;
* :mod:`repro.core.interweave` — Algorithm 3: pairwise null-steering
  transmission that avoids a primary receiver while keeping diversity gain
  toward the secondary receiver (Table 1 / Figure 8).
"""

from repro.core.interweave import (
    InterweaveCluster,
    InterweaveSystem,
    InterweaveTrial,
    form_pairs,
)
from repro.core.overlay import OverlayDistanceResult, OverlaySystem
from repro.core.schemes import (
    HopEnergy,
    HopStep,
    HopTiming,
    cooperative_scheme,
    hop_energy,
    hop_timing,
)
from repro.core.underlay import UnderlayEnergyResult, UnderlaySystem

__all__ = [
    "HopStep",
    "HopEnergy",
    "HopTiming",
    "cooperative_scheme",
    "hop_energy",
    "hop_timing",
    "OverlaySystem",
    "OverlayDistanceResult",
    "UnderlaySystem",
    "UnderlayEnergyResult",
    "InterweaveSystem",
    "InterweaveCluster",
    "InterweaveTrial",
    "form_pairs",
]
