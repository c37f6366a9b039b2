"""Framing: bit/byte packing and CRC-16.

The underlay testbed transmits an image as 1500-byte packets and reports
packet error rate (Table 4).  :func:`repro.testbed.image.transfer_image`
(like :func:`repro.phy.link.simulate_packet_link`) counts a packet as
errored when any received bit differs from the bit sent; neither appends
a CRC.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "crc16",
    "with_crc",
    "bytes_to_bits",
    "bits_to_bytes",
    "CRC_BITS",
]

#: CRC width appended by :func:`with_crc`.
CRC_BITS = 16

#: CRC-16/CCITT-FALSE polynomial.
_POLY = 0x1021
_INIT = 0xFFFF


def _build_crc_table() -> np.ndarray:
    table = np.zeros(256, dtype=np.uint16)
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ _POLY) if (crc & 0x8000) else (crc << 1)
            crc &= 0xFFFF
        table[byte] = crc
    return table


_CRC_TABLE = _build_crc_table()


def crc16(data: np.ndarray) -> int:
    """CRC-16/CCITT-FALSE over a uint8 byte array."""
    arr = np.asarray(data, dtype=np.uint8)
    crc = _INIT
    for byte in arr.tolist():  # table-driven; fast enough for framing
        crc = ((crc << 8) & 0xFFFF) ^ int(_CRC_TABLE[((crc >> 8) ^ byte) & 0xFF])
    return crc


def bytes_to_bits(data: np.ndarray) -> np.ndarray:
    """uint8 array → flat 0/1 int8 array, MSB first."""
    arr = np.asarray(data, dtype=np.uint8)
    return np.unpackbits(arr).astype(np.int8)


def bits_to_bytes(bits: np.ndarray) -> np.ndarray:
    """Flat 0/1 array (length divisible by 8) → uint8 array, MSB first."""
    arr = np.asarray(bits)
    if arr.size % 8 != 0:
        raise ValueError(f"bit count {arr.size} is not a multiple of 8")
    return np.packbits(arr.astype(np.uint8))


def with_crc(payload_bits: np.ndarray) -> np.ndarray:
    """Append a 16-bit CRC to a payload whose length is a byte multiple."""
    arr = np.asarray(payload_bits)
    if arr.size % 8 != 0:
        raise ValueError("payload must be a whole number of bytes")
    crc = crc16(bits_to_bytes(arr))
    crc_bits = ((crc >> np.arange(15, -1, -1)) & 1).astype(np.int8)
    return np.concatenate([arr.astype(np.int8), crc_bits])
