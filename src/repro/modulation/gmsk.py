"""Gaussian Minimum Shift Keying.

The paper's underlay testbed uses GMSK ("The Gaussian-filtered Minimum Shift
Keying (GMSK) modulation and demodulation are used for underlay systems",
Section 6.4 — it is GNU Radio's default packet modem).

Two levels of fidelity are provided:

* :class:`GMSKWaveform` — a true continuous-phase waveform generator
  (Gaussian-filtered frequency pulse, oversampled phase integration).  It is
  used by the tests to verify the physical properties (constant envelope,
  phase continuity, 3-dB bandwidth shrinking with BT) and by anyone who
  wants actual baseband samples.
* :class:`GMSKModem` — a symbol-level equivalent modem for Monte-Carlo link
  simulation.  By Laurent's decomposition, coherently-detected GMSK is
  equivalent to antipodal signaling over the principal pulse with an SNR
  penalty from the ISI of the Gaussian filter; for BT = 0.3 the standard
  penalty is ~0.46 dB (d_min^2 ≈ 1.78 vs 2.0), i.e. an efficiency factor of
  ~0.89.  The modem therefore maps bits antipodally and reports
  ``snr_efficiency`` for the simulator to apply — this keeps million-bit PER
  sweeps vectorized while preserving GMSK's error-rate behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.modulation.base import Modem
from repro.utils.qfunc import qfunc
from repro.utils.validation import check_positive

__all__ = ["GMSKModem", "GMSKWaveform"]

#: d_min^2 / 2 relative to antipodal signaling, tabulated vs BT product
#: (classical values from Murota & Hirade 1981).
_EFFICIENCY_BY_BT = {
    0.20: 0.84,
    0.25: 0.87,
    0.30: 0.89,
    0.50: 0.97,
}


def _efficiency_for_bt(bt: float) -> float:
    """Interpolated SNR efficiency for a Gaussian filter BT product."""
    if bt <= 0.0:
        raise ValueError("BT product must be positive")
    keys = sorted(_EFFICIENCY_BY_BT)
    if bt <= keys[0]:
        return _EFFICIENCY_BY_BT[keys[0]]
    if bt >= keys[-1]:
        return _EFFICIENCY_BY_BT[keys[-1]]
    return float(np.interp(bt, keys, [_EFFICIENCY_BY_BT[k] for k in keys]))


class GMSKModem(Modem):
    """Symbol-level GMSK-equivalent modem (see module docstring).

    Parameters
    ----------
    bt:
        Bandwidth-time product of the Gaussian premodulation filter.
        GNU Radio's default (used by the paper's testbed) is 0.3.
    """

    def __init__(self, bt: float = 0.3):
        self.bt = check_positive(bt, "bt")
        self.snr_efficiency = _efficiency_for_bt(self.bt)

    @property
    def bits_per_symbol(self) -> int:
        return 1

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        arr = self._check_bits(bits)
        return (1.0 - 2.0 * arr).astype(complex)

    def demodulate(self, symbols: np.ndarray) -> np.ndarray:
        sym = np.asarray(symbols)
        return (sym.real < 0.0).astype(np.int8)


class GMSKWaveform:
    """Oversampled continuous-phase GMSK baseband waveform generator.

    The instantaneous frequency is the bit sequence (NRZ ±1) convolved with
    a Gaussian pulse of 3-dB bandwidth ``BT / T``; the phase is the running
    integral scaled so each bit advances the phase by ±π/2 (modulation
    index h = 0.5, as in MSK).
    """

    def __init__(self, bt: float = 0.3, samples_per_symbol: int = 8, pulse_span: int = 4):
        if samples_per_symbol < 2:
            raise ValueError("samples_per_symbol must be >= 2")
        if pulse_span < 1:
            raise ValueError("pulse_span must be >= 1")
        if bt <= 0:
            raise ValueError("BT product must be positive")
        self.bt = float(bt)
        self.sps = int(samples_per_symbol)
        self.span = int(pulse_span)
        self._pulse = self._gaussian_pulse()

    def _gaussian_pulse(self) -> np.ndarray:
        """Gaussian frequency pulse g(t), normalized so ``sum(g) = 1/4``.

        The phase integral multiplies by ``2 pi``, so each bit advances the
        phase by ``2 pi * (1/4) = pi/2`` — modulation index h = 0.5, as in
        MSK.
        """
        t = (np.arange(self.span * self.sps) - (self.span * self.sps - 1) / 2.0) / self.sps
        # Standard GMSK frequency pulse: difference of Q-functions.
        k = 2.0 * np.pi * self.bt / np.sqrt(np.log(2.0))
        g = qfunc(k * (t - 0.5)) - qfunc(k * (t + 0.5))
        g = np.abs(g)
        g /= 4.0 * g.sum()
        return g

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Bits → complex unit-envelope baseband samples.

        Output length is ``(len(bits) + span) * sps - 1`` (full convolution
        of the impulse train with the ``span * sps``-tap frequency pulse).
        """
        arr = np.asarray(bits)
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError("bits must contain only 0 and 1")
        nrz = (1.0 - 2.0 * arr).astype(float)
        impulses = np.zeros(arr.size * self.sps)
        impulses[:: self.sps] = nrz
        freq = np.convolve(impulses, self._pulse)
        phase = 2.0 * np.pi * np.cumsum(freq)
        return np.exp(1j * phase)

    def instantaneous_frequency(self, waveform: np.ndarray) -> np.ndarray:
        """Discrete-time instantaneous frequency (rad/sample) of a waveform."""
        phase = np.unwrap(np.angle(waveform))
        return np.diff(phase)
