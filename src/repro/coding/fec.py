"""XOR-parity forward error correction over keyframe epochs.

The wire path's tier-1 recovery (see :mod:`repro.ingest.channel`): the
node emits one parity frame per keyframe epoch, XOR-folded over a
contiguous run of the epoch's on-air packet bodies padded to the
longest body (the node folds the epoch's *difference* packets —
folding the much larger keyframe would pad the parity to keyframe
width, and keyframes are pinned in the retransmit ring for tier 2
anyway).  Any *single* missing packet of the covered run can then be
reconstructed locally by the receiver — zero round trips, byte
overhead bounded by one body per ``keyframe_interval`` packets —
which matches the node's energy budget: the cheap redundancy rides
along every epoch, and the expensive path (NACK retransmission) is
reserved for the rare multi-loss epoch and for keyframes.

This module is pure byte math shared by the live gateway and the
offline :func:`~repro.ingest.channel.replay_survivors` reference; it
carries no protocol or asyncio state, so both sides provably run the
same reconstruction.

Parity frame body layout (the ``PARITY`` frame of
:mod:`repro.ingest.protocol`)::

    u16be base_sequence | u16be count | parity[max body length]

``base_sequence`` is the first covered packet sequence (the node uses
the epoch's first difference packet, keyframe sequence + 1)
and ``count`` the number of packet bodies folded in; the parity bytes
are the XOR of those bodies, each zero-padded to the longest.  Because
a recovered body is zero-padded the same way, its true length is
re-read from the recovered packet header (``nbits``) and the on-air
CRC-16 then validates the reconstruction end to end — a parity frame
damaged in flight can never smuggle a corrupt window past the CRC.
"""

from __future__ import annotations

from ..core.packets import CRC_BYTES, HEADER_BYTES
from ..errors import PacketFormatError

#: u16be base sequence + u16be covered-packet count
PARITY_HEADER_BYTES = 4

_SEQ_MOD = 1 << 16


def xor_fold(bodies: list[bytes]) -> bytes:
    """XOR of ``bodies``, each zero-padded to the longest one.

    Zero-padding commutes with XOR, so folding is associative and a
    receiver can fold bodies in any order (delivery order, sequence
    order) and land on the same parity bytes.
    """
    if not bodies:
        raise PacketFormatError("cannot fold parity over zero bodies")
    width = max(len(body) for body in bodies)
    folded = 0
    for body in bodies:
        # left-aligned: the zero padding goes below the body's last byte
        folded ^= int.from_bytes(body, "big") << (8 * (width - len(body)))
    return folded.to_bytes(width, "big")


def encode_parity_body(base_sequence: int, bodies: list[bytes]) -> bytes:
    """Build one ``PARITY`` frame body covering an epoch's bodies.

    ``bodies`` must be consecutive packet bodies in sequence order
    starting at ``base_sequence``; a final partial epoch simply folds
    fewer bodies.
    """
    if not 0 <= base_sequence < _SEQ_MOD:
        raise PacketFormatError(
            f"parity base sequence out of range: {base_sequence}"
        )
    if not 0 < len(bodies) < _SEQ_MOD:
        raise PacketFormatError(
            f"parity must cover 1..65535 bodies, got {len(bodies)}"
        )
    return (
        base_sequence.to_bytes(2, "big")
        + len(bodies).to_bytes(2, "big")
        + xor_fold(bodies)
    )


def decode_parity_body(body: bytes) -> tuple[int, int, bytes]:
    """Parse a ``PARITY`` body into ``(base_sequence, count, parity)``."""
    if len(body) < PARITY_HEADER_BYTES:
        raise PacketFormatError(
            f"parity body too short: {len(body)} bytes"
        )
    base = int.from_bytes(body[0:2], "big")
    count = int.from_bytes(body[2:4], "big")
    if count < 1:
        raise PacketFormatError("parity body covers zero packets")
    return base, count, body[PARITY_HEADER_BYTES:]


def covered_sequences(base: int, count: int) -> list[int]:
    """The packet sequences one parity frame covers, in order (mod 2^16)."""
    return [(base + offset) % _SEQ_MOD for offset in range(count)]


def recover_body(parity: bytes, present: list[bytes]) -> bytes:
    """Reconstruct the single missing body of an epoch.

    XOR-folds the parity bytes with every *present* body of the epoch;
    what remains is the missing body zero-padded to the parity width.
    The true on-air length is re-read from the reconstructed packet
    header, and the caller must CRC-check the result (parse it with
    :meth:`~repro.core.packets.EncodedPacket.from_bytes`) before
    trusting it — a lost-then-reconstructed window is only accepted
    when the CRC proves the reconstruction exact.

    Raises :class:`~repro.errors.PacketFormatError` when the remainder
    cannot be a packet body (too short, or its declared length exceeds
    the parity width) — the receiver treats that as an unrecoverable
    epoch and falls through to NACK retransmission.
    """
    candidate = bytearray(xor_fold([parity, *present]))
    if len(candidate) < HEADER_BYTES + CRC_BYTES:
        raise PacketFormatError(
            f"recovered body too short: {len(candidate)} bytes"
        )
    payload_bits = int.from_bytes(candidate[6:10], "big")
    length = HEADER_BYTES + (payload_bits + 7) // 8 + CRC_BYTES
    if length > len(candidate):
        raise PacketFormatError(
            f"recovered body declares {length} bytes but parity holds "
            f"only {len(candidate)}"
        )
    if any(candidate[length:]):
        # the tail past the declared length must be pure padding: a
        # non-zero remainder means >= 2 bodies (or a damaged parity)
        # were folded together and the epoch is not single-loss
        raise PacketFormatError(
            "recovered body has non-zero padding: epoch is not a "
            "single-loss epoch"
        )
    return bytes(candidate[:length])


__all__ = [
    "PARITY_HEADER_BYTES",
    "covered_sequences",
    "decode_parity_body",
    "encode_parity_body",
    "recover_body",
    "xor_fold",
]
