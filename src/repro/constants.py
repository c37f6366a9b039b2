"""System constants of the paper's energy model (Section 2.3).

The paper fixes one set of radio constants, taken from Cui, Goldsmith &
Bahai ("Energy-efficiency of MIMO and cooperative MIMO techniques in sensor
networks", JSAC 2004, and "Energy-constrained modulation optimization",
TWC 2005):

======================  =======================  =============================
symbol                  paper value              meaning
======================  =======================  =============================
``P_ct``                48.64 mW                 transmitter circuit power
``P_cr``                62.5 mW                  receiver circuit power
``P_syn``               50 mW                    frequency-synthesizer power
``G1``                  10 mW                    local path-gain factor at 1 m
``kappa``               3.5                      local path-loss exponent
``M_l``                 40 dB                    link margin
``N_f``                 10 dB                    receiver noise figure
``T_tr``                5 us                     synthesizer transient time
``sigma^2``             -174 dBm/Hz              thermal noise PSD
``G_t G_r``             5 dBi                    combined antenna gain
``lambda``              0.1199 m                 carrier wavelength (~2.5 GHz)
``N_0``                 -171 dBm/Hz              receiver-referred noise PSD
======================  =======================  =============================

:class:`SystemConstants` stores the quoted values and exposes the linear
(SI-unit) versions used by :mod:`repro.energy`, each converted once per
instance (the energy formulas read them on every call).  A frozen dataclass
keeps an experiment's constant set immutable once constructed; variations
(ablations) create a new instance via :meth:`SystemConstants.replace`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from repro.utils.units import (
    DB,
    Bits,
    DBi,
    DBmPerHz,
    Hertz,
    LinearRatio,
    LinearRatioLike,
    Meters,
    MetersLike,
    Milliwatts,
    Seconds,
    Watts,
    WattsPerHz,
    db_to_linear,
    dbi_to_linear,
    dbm_per_hz_to_watts_per_hz,
    milliwatts_to_watts,
)
from repro.utils.validation import check_finite, check_non_negative, check_positive

__all__ = ["SystemConstants", "PAPER_CONSTANTS", "SPEED_OF_LIGHT"]

#: Speed of light in vacuum [m/s]; used to relate wavelength and carrier.
SPEED_OF_LIGHT = 299_792_458.0


def _check_distance(distance_m: MetersLike) -> None:
    """Reject a distance ``<= 0``; NaN passes, as ``nan <= 0.0`` is False.

    A Python or NumPy scalar takes one comparison, about a hundredth of
    the cost of ``np.any`` over a wrapped scalar; the city runtime
    prices one leg per call.
    """
    if isinstance(distance_m, (float, int, np.number)):
        bad = bool(distance_m <= 0.0)
    else:
        bad = bool(np.any(np.asarray(distance_m) <= 0.0))
    if bad:
        raise ValueError(f"distance_m must be positive, got {distance_m}")


@dataclass(frozen=True)
class SystemConstants:
    """Immutable bundle of the radio constants of Section 2.3.

    All attributes are stored in the units the paper quotes them in; the
    ``*_linear`` / ``*_watts`` properties convert to SI.  Construct with no
    arguments for the paper's values, or override any subset::

        consts = SystemConstants(noise_figure_db=6.0)
    """

    #: Transmitter circuit power [mW] (``P_ct``).
    p_ct_mw: Milliwatts = 48.64
    #: Receiver circuit power [mW] (``P_cr``).
    p_cr_mw: Milliwatts = 62.5
    #: Frequency synthesizer power [mW] (``P_syn``).
    p_syn_mw: Milliwatts = 50.0
    #: Local path-gain factor at 1 m [mW] (``G1`` in ``G_d = G1 d^kappa M_l``).
    g1_mw: Milliwatts = 10.0
    #: Local path-loss exponent (``kappa``).
    kappa: float = 3.5
    #: Link margin [dB] (``M_l``).
    link_margin_db: DB = 40.0
    #: Receiver noise figure [dB] (``N_f``).
    noise_figure_db: DB = 10.0
    #: Synthesizer transient/settling time [s] (``T_tr``).
    t_tr_s: Seconds = 5e-6
    #: Thermal noise power spectral density [dBm/Hz] (``sigma^2``).
    sigma2_dbm_hz: DBmPerHz = -174.0
    #: Combined transmit/receive antenna gain [dBi] (``G_t G_r``).
    antenna_gain_dbi: DBi = 5.0
    #: Carrier wavelength [m] (``lambda``); 0.1199 m is ~2.5 GHz.
    wavelength_m: Meters = 0.1199
    #: Receiver-referred single-sided noise PSD [dBm/Hz] (``N_0``).
    n0_dbm_hz: DBmPerHz = -171.0
    #: Power-amplifier drain efficiency (``eta`` in ``alpha = xi/eta - 1``).
    drain_efficiency: LinearRatio = 0.35

    def __post_init__(self) -> None:
        check_positive(self.p_ct_mw, "p_ct_mw")
        check_positive(self.p_cr_mw, "p_cr_mw")
        check_positive(self.p_syn_mw, "p_syn_mw")
        check_positive(self.g1_mw, "g1_mw")
        check_positive(self.kappa, "kappa")
        check_finite(self.link_margin_db, "link_margin_db")
        check_finite(self.noise_figure_db, "noise_figure_db")
        check_non_negative(self.t_tr_s, "t_tr_s")
        check_finite(self.sigma2_dbm_hz, "sigma2_dbm_hz")
        check_finite(self.antenna_gain_dbi, "antenna_gain_dbi")
        check_positive(self.wavelength_m, "wavelength_m")
        check_finite(self.n0_dbm_hz, "n0_dbm_hz")
        check_positive(self.drain_efficiency, "drain_efficiency")

    # ------------------------------------------------------------------ #
    # Linear / SI views                                                  #
    # ------------------------------------------------------------------ #

    @functools.cached_property
    def p_ct_w(self) -> Watts:
        """Transmitter circuit power [W]."""
        return float(milliwatts_to_watts(self.p_ct_mw))

    @functools.cached_property
    def p_cr_w(self) -> Watts:
        """Receiver circuit power [W]."""
        return float(milliwatts_to_watts(self.p_cr_mw))

    @functools.cached_property
    def p_syn_w(self) -> Watts:
        """Synthesizer power [W]."""
        return float(milliwatts_to_watts(self.p_syn_mw))

    @functools.cached_property
    def g1_w(self) -> Watts:
        """Local path-gain factor at 1 m [W]."""
        return float(milliwatts_to_watts(self.g1_mw))

    @functools.cached_property
    def link_margin_linear(self) -> LinearRatio:
        """Link margin ``M_l`` as a linear ratio."""
        return float(db_to_linear(self.link_margin_db))

    @functools.cached_property
    def noise_figure_linear(self) -> LinearRatio:
        """Noise figure ``N_f`` as a linear ratio."""
        return float(db_to_linear(self.noise_figure_db))

    @functools.cached_property
    def sigma2_w_hz(self) -> WattsPerHz:
        """Thermal noise PSD ``sigma^2`` [W/Hz]."""
        return float(dbm_per_hz_to_watts_per_hz(self.sigma2_dbm_hz))

    @functools.cached_property
    def n0_w_hz(self) -> WattsPerHz:
        """Receiver-referred noise PSD ``N_0`` [W/Hz]."""
        return float(dbm_per_hz_to_watts_per_hz(self.n0_dbm_hz))

    @functools.cached_property
    def antenna_gain_linear(self) -> LinearRatio:
        """Combined antenna gain ``G_t G_r`` as a linear ratio."""
        return float(dbi_to_linear(self.antenna_gain_dbi))

    @functools.cached_property
    def carrier_frequency_hz(self) -> Hertz:
        """Carrier frequency implied by the wavelength [Hz]."""
        return SPEED_OF_LIGHT / self.wavelength_m

    # ------------------------------------------------------------------ #
    # Derived model quantities                                           #
    # ------------------------------------------------------------------ #

    def local_gain(self, distance_m: MetersLike) -> LinearRatioLike:
        """Local-transmission path gain ``G_d = G1 * d^kappa * M_l`` (linear).

        ``distance_m`` is the intra-cluster hop length ``d``; the result
        multiplies the required received energy to obtain transmit energy in
        formula (1) of the paper.  Accepts an array of distances (the
        vectorized experiment sweeps), returning an array of gains.
        """
        _check_distance(distance_m)
        return self.g1_w * distance_m**self.kappa * self.link_margin_linear

    def longhaul_gain(self, distance_m: MetersLike) -> LinearRatioLike:
        """Long-haul path gain ``(4 pi D)^2 / (G_t G_r lambda^2) * M_l * N_f``.

        This is the multiplicative factor of ``e_bar_b`` in formula (3);
        it converts required received energy per bit into transmitted energy
        per bit over the ``D``-meter cooperative link (square-law fall-off,
        i.e. free space, as the paper assumes for the long haul).  Accepts an
        array of distances, returning elementwise gains.

        The square is one multiply: ``x ** 2`` on a Python float calls C
        ``pow()``, which can land 1 ULP away from the ``x * x`` NumPy uses
        for an array, and the scalar and array paths must agree bit for bit.
        """
        _check_distance(distance_m)
        scaled = 4.0 * np.pi * distance_m
        numerator = scaled * scaled
        denominator = self.antenna_gain_linear * self.wavelength_m**2
        return (
            numerator
            / denominator
            * self.link_margin_linear
            * self.noise_figure_linear
        )

    def peak_to_average_alpha(self, b: Bits) -> LinearRatio:
        """PA inefficiency ``alpha = 3(sqrt(2^b)-1) / (0.35 (sqrt(2^b)+1))``.

        The paper's expression folds the M-QAM peak-to-average ratio
        ``xi = 3 (sqrt(M)-1)/(sqrt(M)+1)`` and the drain efficiency
        ``eta = 0.35`` into one constant per constellation size ``b``.
        """
        if b < 1:
            raise ValueError(f"constellation size b must be >= 1, got {b}")
        root_m = np.sqrt(2.0**b)
        return float(3.0 * (root_m - 1.0) / (self.drain_efficiency * (root_m + 1.0)))

    def replace(self, **changes: float) -> "SystemConstants":
        """Return a copy with the given fields replaced (ablation helper)."""
        return dataclasses.replace(self, **changes)


#: The exact constant set used throughout the paper's Section 6.
PAPER_CONSTANTS = SystemConstants()
