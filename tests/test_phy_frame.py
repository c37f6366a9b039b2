"""Framing tests: CRC properties and bit/byte packing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy.frame import (
    CRC_BITS,
    bits_to_bytes,
    bytes_to_bits,
    crc16,
    with_crc,
)

byte_arrays = st.lists(st.integers(0, 255), min_size=1, max_size=200).map(
    lambda l: np.array(l, dtype=np.uint8)
)


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE of ascii "123456789" is 0x29B1
        data = np.frombuffer(b"123456789", dtype=np.uint8)
        assert crc16(data) == 0x29B1

    def test_empty_is_init(self):
        assert crc16(np.array([], dtype=np.uint8)) == 0xFFFF

    @given(byte_arrays)
    def test_deterministic(self, data):
        assert crc16(data) == crc16(data)

    @given(byte_arrays, st.integers(0, 7))
    def test_single_bit_flip_detected(self, data, bit):
        flipped = data.copy()
        flipped[0] ^= 1 << bit
        assert crc16(flipped) != crc16(data)


class TestBitBytes:
    @given(byte_arrays)
    def test_roundtrip(self, data):
        np.testing.assert_array_equal(bits_to_bytes(bytes_to_bits(data)), data)

    def test_msb_first(self):
        bits = bytes_to_bits(np.array([0b10000001], dtype=np.uint8))
        np.testing.assert_array_equal(bits, [1, 0, 0, 0, 0, 0, 0, 1])

    def test_non_multiple_of_8_rejected(self):
        with pytest.raises(ValueError):
            bits_to_bytes(np.ones(7, dtype=np.int8))


class TestWithCrc:
    @given(byte_arrays)
    def test_clean_frame_verifies(self, data):
        frame = with_crc(bytes_to_bits(data))
        assert frame.size == data.size * 8 + CRC_BITS
        np.testing.assert_array_equal(bits_to_bytes(frame[:-CRC_BITS]), data)
        trailer = bits_to_bytes(frame[-CRC_BITS:])
        assert (int(trailer[0]) << 8) | int(trailer[1]) == crc16(data)

    def test_non_byte_payload_rejected(self):
        with pytest.raises(ValueError):
            with_crc(np.ones(5, dtype=np.int8))
