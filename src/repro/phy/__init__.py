"""Link-level Monte-Carlo simulation: frames, links, and relay chains.

This is the software substitute for the paper's GNU Radio/USRP testbed
(Section 6.4): the same DSP path — modulation, space-time coding, fading,
noise, combining, hard decision, packet error counting — driven by
channel-model SNRs instead of real RF hardware.
"""

from repro.phy.frame import (
    bits_to_bytes,
    bytes_to_bits,
    crc16,
    with_crc,
)
from repro.phy.link import LinkResult, simulate_link, simulate_packet_link
from repro.phy.relay import RelayChainResult, simulate_relay_chain

__all__ = [
    "crc16",
    "with_crc",
    "bytes_to_bits",
    "bits_to_bytes",
    "LinkResult",
    "simulate_link",
    "simulate_packet_link",
    "RelayChainResult",
    "simulate_relay_chain",
]
