"""On-air packet format of the CS-ECG link.

Every 2-second window produces one packet:

====== ======================= =======================================
field   size                    meaning
====== ======================= =======================================
sync    8 bits (``0xA5``)       frame delimiter
kind    8 bits                  1 = keyframe, 2 = difference
seq     16 bits                 packet sequence number (mod 65536)
m       16 bits                 measurement count (sanity check)
nbits   32 bits                 payload length in bits
payload ``ceil(nbits/8)`` bytes keyframe: 16-bit signed raw values;
                                difference: Huffman codewords
crc     16 bits                 CRC-16/CCITT over header + payload
====== ======================= =======================================

Keyframes carry raw 16-bit quantized measurements (they are rare — one
every ``keyframe_interval`` packets — and must be decodable without
history).  Difference packets carry the Huffman bitstream.
"""

from __future__ import annotations

import binascii
import enum
from dataclasses import dataclass

import numpy as np

from ..errors import PacketFormatError

SYNC_BYTE = 0xA5
HEADER_BYTES = 1 + 1 + 2 + 2 + 4
CRC_BYTES = 2


def crc16_ccitt(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021), the standard small-MCU CRC.

    ``binascii.crc_hqx`` is this CRC in C (polynomial 0x1021, MSB
    first, no reflection, no final XOR).
    """
    return binascii.crc_hqx(data, initial)


class PacketKind(enum.IntEnum):
    """Packet payload type."""

    KEYFRAME = 1
    DIFFERENCE = 2


@dataclass(frozen=True)
class EncodedPacket:
    """One encoded 2-second ECG window, ready for the radio."""

    kind: PacketKind
    sequence: int
    m: int
    payload: bytes
    payload_bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.sequence < 1 << 16:
            raise PacketFormatError(f"sequence out of range: {self.sequence}")
        if not 0 < self.m < 1 << 16:
            raise PacketFormatError(f"m out of range: {self.m}")
        if self.payload_bits < 0 or (self.payload_bits + 7) // 8 > len(self.payload):
            raise PacketFormatError(
                f"payload_bits {self.payload_bits} inconsistent with "
                f"{len(self.payload)} payload bytes"
            )

    # ------------------------------------------------------------------
    @property
    def total_bits(self) -> int:
        """Full on-air size (header + payload + CRC) in bits."""
        return 8 * (HEADER_BYTES + len(self.payload) + CRC_BYTES)

    def header_bytes(self) -> bytes:
        """Serialize the header fields."""
        return bytes(
            [
                SYNC_BYTE,
                int(self.kind),
                (self.sequence >> 8) & 0xFF,
                self.sequence & 0xFF,
                (self.m >> 8) & 0xFF,
                self.m & 0xFF,
                (self.payload_bits >> 24) & 0xFF,
                (self.payload_bits >> 16) & 0xFF,
                (self.payload_bits >> 8) & 0xFF,
                self.payload_bits & 0xFF,
            ]
        )

    def to_bytes(self) -> bytes:
        """Full wire representation with trailing CRC."""
        body = self.header_bytes() + self.payload
        crc = crc16_ccitt(body)
        return body + bytes([(crc >> 8) & 0xFF, crc & 0xFF])

    # ------------------------------------------------------------------
    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodedPacket":
        """Parse and CRC-check one wire packet."""
        if len(data) < HEADER_BYTES + CRC_BYTES:
            raise PacketFormatError(
                f"packet too short: {len(data)} bytes"
            )
        if data[0] != SYNC_BYTE:
            raise PacketFormatError(
                f"bad sync byte 0x{data[0]:02X} (expected 0x{SYNC_BYTE:02X})"
            )
        try:
            kind = PacketKind(data[1])
        except ValueError as exc:
            raise PacketFormatError(f"unknown packet kind {data[1]}") from exc
        sequence = (data[2] << 8) | data[3]
        m = (data[4] << 8) | data[5]
        payload_bits = (data[6] << 24) | (data[7] << 16) | (data[8] << 8) | data[9]
        payload_bytes = (payload_bits + 7) // 8
        expected = HEADER_BYTES + payload_bytes + CRC_BYTES
        if len(data) != expected:
            raise PacketFormatError(
                f"packet length {len(data)} != expected {expected}"
            )
        body = data[:-CRC_BYTES]
        crc_received = (data[-2] << 8) | data[-1]
        crc_computed = crc16_ccitt(body)
        if crc_received != crc_computed:
            raise PacketFormatError(
                f"CRC mismatch: got 0x{crc_received:04X}, "
                f"computed 0x{crc_computed:04X}"
            )
        payload = data[HEADER_BYTES:-CRC_BYTES]
        return cls(
            kind=kind,
            sequence=sequence,
            m=m,
            payload=payload,
            payload_bits=payload_bits,
        )


def pack_keyframe_values(values: np.ndarray) -> tuple[bytes, int]:
    """Serialize keyframe measurements as big-endian int16."""
    v = np.asarray(values)
    if v.size and (v.max() > 32767 or v.min() < -32768):
        raise PacketFormatError("keyframe value outside int16 range")
    payload = v.astype(">i2").tobytes()
    return payload, 16 * v.size


def unpack_keyframe_values(payload: bytes, count: int) -> np.ndarray:
    """Deserialize keyframe measurements."""
    if len(payload) < 2 * count:
        raise PacketFormatError(
            f"keyframe payload too short: {len(payload)} bytes for {count} values"
        )
    return np.frombuffer(payload[: 2 * count], dtype=">i2").astype(np.int64)
