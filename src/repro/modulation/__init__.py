"""Digital modulation: modems, Gray mapping and theoretical BER curves.

The paper's experiments use BPSK (overlay and interweave testbeds, Section
6.4), GMSK (underlay testbed), and variable-size M-QAM constellations
(``b`` = 1..16 bits/symbol) inside the energy model of Section 2.3.
"""

from repro.modulation.base import Modem
from repro.modulation.gmsk import GMSKModem, GMSKWaveform
from repro.modulation.gray import (
    bits_to_ints,
    gray_decode,
    gray_encode,
    ints_to_bits,
)
from repro.modulation.psk import BPSKModem, QPSKModem
from repro.modulation.qam import QAMModem
from repro.modulation.theory import (
    ber_bpsk_awgn,
    ber_bpsk_rayleigh,
    ber_mqam_awgn,
    instantaneous_ber,
    rayleigh_diversity_avg_qfunc,
)

__all__ = [
    "Modem",
    "BPSKModem",
    "QPSKModem",
    "QAMModem",
    "GMSKModem",
    "GMSKWaveform",
    "gray_encode",
    "gray_decode",
    "bits_to_ints",
    "ints_to_bits",
    "ber_bpsk_awgn",
    "ber_bpsk_rayleigh",
    "ber_mqam_awgn",
    "instantaneous_ber",
    "rayleigh_diversity_avg_qfunc",
    "modem_for_bits_per_symbol",
]


def modem_for_bits_per_symbol(b: int) -> Modem:
    """Construct the natural modem for ``b`` bits/symbol.

    ``b = 1`` → BPSK, ``b = 2`` → QPSK (Gray-mapped 4-QAM), ``b >= 3`` →
    rectangular/square Gray-mapped QAM — the modulation family assumed by
    the paper's variable-rate energy model.
    """
    if b == 1:
        return BPSKModem()
    if b == 2:
        return QPSKModem()
    return QAMModem(bits_per_symbol=b)
