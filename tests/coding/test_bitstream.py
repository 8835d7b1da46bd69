"""Tests for the MSB-first bit I/O layer."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding import BitReader, BitWriter
from repro.errors import BitstreamError


class TestBitWriter:
    def test_empty_writer(self):
        writer = BitWriter()
        assert len(writer) == 0
        assert writer.getvalue() == b""

    def test_single_bit_msb_first(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.getvalue() == b"\x80"
        assert len(writer) == 1

    def test_eight_bits_make_a_byte(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 0, 0, 1, 0, 1):
            writer.write_bit(bit)
        assert writer.getvalue() == b"\xa5"

    def test_write_bits_value(self):
        writer = BitWriter()
        writer.write_bits(0xA5, 8)
        assert writer.getvalue() == b"\xa5"

    def test_write_bits_width_zero_is_noop(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert len(writer) == 0

    def test_write_bits_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(BitstreamError):
            writer.write_bits(4, 2)

    def test_write_bits_negative_rejected(self):
        with pytest.raises(BitstreamError):
            BitWriter().write_bits(-1, 4)

    def test_invalid_bit_rejected(self):
        with pytest.raises(BitstreamError):
            BitWriter().write_bit(2)


class TestBitReader:
    def test_read_bits_roundtrip(self):
        reader = BitReader(b"\xa5")
        assert reader.read_bits(8) == 0xA5

    def test_read_past_end_raises(self):
        reader = BitReader(b"\xff", bit_length=3)
        reader.read_bits(3)
        with pytest.raises(BitstreamError):
            reader.read_bit()

    def test_bit_length_validation(self):
        with pytest.raises(BitstreamError):
            BitReader(b"\xff", bit_length=9)

    def test_position_and_remaining(self):
        reader = BitReader(b"\xff\x00")
        assert reader.remaining == 16
        reader.read_bits(5)
        assert reader.position == 5
        assert reader.remaining == 11

    def test_negative_width_rejected(self):
        with pytest.raises(BitstreamError):
            BitReader(b"\xff").read_bits(-1)


class TestRoundtripProperties:
    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_bit_sequence_roundtrip(self, bits):
        writer = BitWriter()
        for bit in bits:
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue(), bit_length=len(writer))
        assert [reader.read_bit() for _ in bits] == bits

    @given(
        st.lists(
            st.tuples(st.integers(1, 24), st.integers(min_value=0)),
            max_size=50,
        ).map(
            lambda pairs: [(w, v % (1 << w)) for w, v in pairs]
        )
    )
    def test_mixed_width_roundtrip(self, fields):
        writer = BitWriter()
        for width, value in fields:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue(), bit_length=len(writer))
        for width, value in fields:
            assert reader.read_bits(width) == value

    @given(st.binary(max_size=64))
    def test_bytes_roundtrip_through_bits(self, data):
        writer = BitWriter()
        for byte in data:
            writer.write_bits(byte, 8)
        assert writer.getvalue() == data
