"""Cooperative transmit beamforming (Section 5, Algorithm 3).

* :mod:`repro.beamforming.pairwise` — the paper's pairwise null-steering:
  one node of each transmit pair is given the phase offset
  ``delta = pi (2 r cos(alpha) / w - 1)`` so the pair's waves cancel toward
  the primary receiver;
* :mod:`repro.beamforming.pattern` — radiation patterns of the resulting
  two-element array (Figure 8's simulated beamformer curve).
"""

from repro.beamforming.pairwise import (
    NullSteeringPair,
    pair_amplitude,
    phase_delay_for_null,
)
from repro.beamforming.pattern import radiation_pattern, pattern_null_angle

__all__ = [
    "phase_delay_for_null",
    "pair_amplitude",
    "NullSteeringPair",
    "radiation_pattern",
    "pattern_null_angle",
]
