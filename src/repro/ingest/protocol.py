"""Length-prefixed wire protocol of the live ingestion gateway.

A node link is a single duplex byte stream (TCP, or the in-process
loopback used by tests) carrying *frames*::

    frame := u32be body_length | u8 kind | body[body_length - 1]

The length prefix counts the kind byte plus the body, so a receiver
always knows exactly how many bytes to wait for; a stream that ends
mid-frame is a *truncated frame* and raises
:class:`~repro.errors.ProtocolError`.  A stream that ends cleanly on a
frame boundary is an orderly EOF (``read_frame`` returns ``None``).

Node -> gateway frames
======================

``HELLO``
    First frame on every link: a JSON :class:`Handshake` carrying the
    protocol version, the stream identity (record name, lead/channel),
    the full scalar codec configuration (the
    :class:`~repro.config.SystemConfig` fields — including the sensing
    seed the gateway needs to rebuild ``Phi``) and the node's trained
    Huffman codebook (canonical lengths only).  A ``protocol`` version
    other than :data:`PROTOCOL_VERSION` or a malformed config is
    answered with an ``ERROR`` frame and the link is closed — and so
    is a link whose ``HELLO`` has not arrived
    :data:`HANDSHAKE_TIMEOUT_S` after it connected.
``PACKET``
    One encoded 2-second window, as the exact on-air bytes of
    :meth:`~repro.core.packets.EncodedPacket.to_bytes` (sync byte,
    header, payload, CRC-16).  The gateway CRC-checks and decodes it
    incrementally.  The wire is treated as *lossy*: a stream's first
    window is sequence 0 and sequences increase by one per window
    (mod 2^16), so the gateway detects drops, reorders and duplicates
    from the sequence alone (see :mod:`repro.ingest.channel`); a
    corrupt-CRC frame is counted and discarded, not a link error.
``PARITY``
    Tier-1 recovery (nodes with ``fec`` enabled): one
    XOR-parity frame per keyframe epoch, folded over the epoch's
    packet bodies padded to the longest (see :mod:`repro.coding.fec`).
    Sent after the epoch's last packet, before the next keyframe (and
    once more before ``BYE`` for a partial final epoch), so the
    gateway can reconstruct any single lost packet of the epoch
    locally — zero round trips.
``BYE``
    Orderly end of stream: the gateway flushes the stream's pending
    windows, finishes decoding, and closes the link.  The body may be
    empty, or a JSON object ``{"windows": N}`` declaring how many
    windows the node sent — this lets the gateway account a *trailing*
    loss, which no later packet would otherwise reveal.  An fec node
    keeps the link open after ``BYE`` and keeps answering ``NACK``
    frames until the gateway closes, so even a trailing loss can be
    retransmitted.

Gateway -> node frames
======================

``WELCOME``
    Handshake accepted; JSON body carries :data:`PROTOCOL_VERSION` and
    the gateway-assigned stream id.
``DECODED``
    One window left the solver: JSON ``{"sequence", "iterations",
    "latency_ms"}`` — the packet sequence, the solver iterations and
    the gateway-side latency from frame arrival to reconstruction.
    Lets a node (or the bench harness) observe end-to-end decode
    latency without a side channel.  Channel damage is the
    coordinator's to account (the stream's result and the
    ``ingest_*`` counters), not the node's: the ack carries none.  A
    node reads ack keys with defaults, so a peer that sends more or
    fewer keys still interoperates.
``NACK``
    Tier-2 recovery: JSON ``{"sequences": [...]}``
    naming packet sequences the gateway still needs — sent over the
    existing ack channel when a gap exceeds what parity can cover
    (>= 2 losses in one epoch, or a lost packet whose parity is also
    gone).  The node retransmits whichever of them its retransmit
    ring still holds.  Sent only on a link whose ``HELLO`` declared
    ``fec``.
``ERROR``
    JSON ``{"error": reason}``; the gateway closes the link after
    sending it.

Framing deliberately carries no per-frame CRC of its own: ``PACKET``
bodies are already CRC-16-protected by the on-air format, and the
transport (TCP) is reliable.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

from ..coding import Codebook
from ..config import SystemConfig
from ..core.decoder import BACKENDS
from ..errors import CodebookError, ConfigurationError, ProtocolError

#: The one protocol revision this module speaks and accepts (v2 added
#: the two-tier recovery layer: ``PARITY`` epochs + ``NACK``
#: retransmission); a ``HELLO`` naming any other version is refused
#: with an ``ERROR`` frame.
PROTOCOL_VERSION = 2

#: Upper bound on one frame's length prefix.  A 2-second window at the
#: paper's operating point is ~1 kB on the wire and a handshake is a
#: few kB of JSON; anything near a megabyte is a corrupt or hostile
#: length prefix and is rejected before allocation.
MAX_FRAME_BYTES = 1 << 20

#: Upper bound on a handshake's window length ``n`` (the paper's window
#: is 512 samples).  The gateway rebuilds a dense ``n x n`` synthesis
#: basis per operator a HELLO names — 8 MiB at this cap, 32 GiB at the
#: ``n = 65536`` the config's power-of-two rule alone would admit — so
#: a larger window is refused before anything is allocated.
MAX_WINDOW_SAMPLES = 1024

#: Upper bound on a handshake's solver iteration cap (the paper budgets
#: 2000).  A column that never converges runs this many iterations
#: while holding one of the gateway's shared solve slots — seconds
#: here, days at the 2 * 10^9 an unchecked HELLO could name, stalling
#: every honest stream behind it.
MAX_SOLVER_ITERATIONS = 20_000

#: Upper bound on a handshake's keyframe interval (the paper uses 16):
#: recovery holds up to ``HOLD_CAP_EPOCHS * keyframe_interval`` frames.
MAX_KEYFRAME_INTERVAL = 1024

#: Upper bound on a ``HELLO`` body.  A handshake is the config's
#: scalars plus at most ``HUFFMAN_SYMBOLS`` canonical code lengths, a
#: few kB of JSON; a larger one is refused before it is parsed.
MAX_HELLO_BYTES = 64 * 1024

#: How long a front door waits for a link's first frame.  A node sends
#: its ``HELLO`` the moment it connects, so a link still silent (or
#: still dribbling a partial frame) after this long is half-open or
#: hostile: it is answered with an ``ERROR`` and closed instead of
#: holding a connection task for the life of the process.  Mid-stream
#: silence has its own deadline, a multiple of the window period the
#: HELLO declares (:data:`~repro.ingest.gateway.IDLE_DEADLINE_WINDOWS`).
HANDSHAKE_TIMEOUT_S = 10.0

_LENGTH_BYTES = 4


class FrameKind(IntEnum):
    """Frame type tags (one byte on the wire)."""

    HELLO = 1
    PACKET = 2
    BYE = 3
    PARITY = 4
    WELCOME = 10
    DECODED = 11
    ERROR = 12
    NACK = 13


def encode_frame(kind: FrameKind, body: bytes = b"") -> bytes:
    """Serialize one frame: length prefix, kind byte, body."""
    length = 1 + len(body)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return length.to_bytes(_LENGTH_BYTES, "big") + bytes([int(kind)]) + body


def encode_json_frame(kind: FrameKind, payload: dict[str, Any]) -> bytes:
    """Serialize a frame whose body is a JSON object."""
    return encode_frame(kind, json.dumps(payload).encode("utf-8"))


def decode_json_body(body: bytes) -> dict[str, Any]:
    """Parse a JSON frame body into a dict, with protocol-level errors."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer literal
        # past Python's digit limit; RecursionError, deep nesting
        raise ProtocolError(f"malformed JSON frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"JSON frame body must be an object, got {type(payload).__name__}"
        )
    return payload


async def read_frame(
    reader: asyncio.StreamReader,
) -> tuple[FrameKind, bytes] | None:
    """Read one frame; ``None`` on orderly EOF at a frame boundary.

    Raises :class:`~repro.errors.ProtocolError` on a truncated frame
    (EOF inside the length prefix or body), an oversized length prefix,
    an empty frame, or an unknown frame kind.
    """
    try:
        prefix = await reader.readexactly(_LENGTH_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError(
            f"truncated frame: EOF after {len(exc.partial)} of "
            f"{_LENGTH_BYTES} length-prefix bytes"
        ) from exc
    length = int.from_bytes(prefix, "big")
    if length < 1:
        raise ProtocolError("empty frame: length prefix must be >= 1")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"truncated frame: EOF after {len(exc.partial)} of "
            f"{length} body bytes"
        ) from exc
    try:
        kind = FrameKind(payload[0])
    except ValueError as exc:
        raise ProtocolError(f"unknown frame kind {payload[0]}") from exc
    return kind, payload[1:]


async def read_hello(reader: asyncio.StreamReader) -> bytes | None:
    """Read a link's first frame: the ``HELLO`` body, or ``None`` when
    the peer hung up before sending anything.

    Raises :class:`~repro.errors.ProtocolError` when the whole frame
    has not arrived within :data:`HANDSHAKE_TIMEOUT_S` of the call,
    when it is not a ``HELLO`` or when its body is longer than
    :data:`MAX_HELLO_BYTES` (plus everything :func:`read_frame`
    raises).
    """
    try:
        frame = await asyncio.wait_for(
            read_frame(reader), HANDSHAKE_TIMEOUT_S
        )
    except asyncio.TimeoutError as exc:
        raise ProtocolError(
            f"no HELLO within {HANDSHAKE_TIMEOUT_S:g} s of connecting"
        ) from exc
    if frame is None:
        return None
    kind, body = frame
    if kind is not FrameKind.HELLO:
        raise ProtocolError(
            f"expected HELLO as the first frame, got {kind.name}"
        )
    if len(body) > MAX_HELLO_BYTES:
        raise ProtocolError(
            f"HELLO of {len(body)} bytes exceeds the "
            f"{MAX_HELLO_BYTES}-byte cap"
        )
    return body


@dataclass(frozen=True)
class Handshake:
    """The ``HELLO`` payload: everything the gateway needs to decode.

    Attributes
    ----------
    record:
        Name of the record the node is streaming (stream identity).
    channel:
        ECG lead index within the record (stream identity).
    config:
        The node's full codec configuration.  Carries the sensing seed
        and matrix shape (``n``, ``m``, ``d``) the gateway needs to
        rebuild ``A = Phi Psi^-1``, the wavelet basis, and the solver
        stopping parameters that define the stream's operator group.
    codebook:
        The node's trained Huffman codebook, or ``None`` for the
        default (untrained) codebook.  Serialized as canonical code
        lengths — the same kilobyte-scale table the mote's flash holds.
    precision:
        Decode precision the node requests (``"float64"``/``"float32"``).
    fec:
        Whether the node emits per-epoch ``PARITY`` frames and answers
        ``NACK`` retransmission requests.  The gateway engages its
        hold-and-recover admission path only for sessions that
        declare this — an fec-off stream runs the plain
        keyframe-resync path.
    resume:
        Sequence number of the first ``PACKET`` this session will
        carry (mod 2^16).  ``0`` — the default, and the only value a
        fresh stream sends — is left off the wire.  A
        node reconnecting mid-stream (after a connection reset or a
        federation gateway failover) sets it to the next sequence it
        will transmit, so the receiving gateway baselines its
        sequence tracker there instead of charging the whole prefix
        ``0..resume-1`` as lost.  The windows themselves still resync
        at the next keyframe (or replay from the retransmit ring when
        fec is on) — ``resume`` only fixes the *accounting*.
    resumed:
        Whether this session *continues* a previous session's sequence
        space (a reconnect), as opposed to starting a fresh stream.
        ``resume > 0`` implies it, but the flag matters exactly when
        ``resume == 0``: an fec node replaying from its pinned
        keyframe 0 after an early failover declares ``resumed`` with
        ``resume 0``, which is indistinguishable on the sequence
        alone from a node restarting from scratch.  Downstream,
        :func:`~repro.ingest.gateway.merge_stream_results` uses it to
        decide whether equal sequence numbers across two sessions are
        replays of the same window (deduplicate) or different windows
        (keep both).  Absent on the wire for fresh streams, so the
        fresh-stream bytes stay identical.
    """

    record: str
    channel: int
    config: SystemConfig
    codebook: Codebook | None = None
    precision: str = "float64"
    fec: bool = False
    resume: int = 0
    resumed: bool = False

    def to_payload(self) -> dict[str, Any]:
        """Build the JSON-safe ``HELLO`` body (includes the version)."""
        payload = {
            "protocol": PROTOCOL_VERSION,
            "record": self.record,
            "channel": int(self.channel),
            "config": dataclasses.asdict(self.config),
            "codebook": (
                None
                if self.codebook is None
                else json.loads(self.codebook.to_json())
            ),
            "precision": self.precision,
            "fec": bool(self.fec),
        }
        if self.resume:
            payload["resume"] = int(self.resume)
        if self.resumed:
            payload["resumed"] = True
        return payload

    def to_frame(self) -> bytes:
        """Serialize the complete ``HELLO`` frame."""
        return encode_json_frame(FrameKind.HELLO, self.to_payload())

    @classmethod
    def from_body(cls, body: bytes) -> "Handshake":
        """Parse and validate a ``HELLO`` body.

        Raises :class:`~repro.errors.ProtocolError` on a protocol
        version other than :data:`PROTOCOL_VERSION`, a malformed or
        invalid codec config, a window longer than
        :data:`MAX_WINDOW_SAMPLES`, an iteration cap
        above :data:`MAX_SOLVER_ITERATIONS`, a keyframe interval above
        :data:`MAX_KEYFRAME_INTERVAL`, a bad codebook table (one with a
        codeword longer than ``config.HUFFMAN_MAX_CODE_BITS`` included:
        the code tables are sized by it), or a bad precision — the
        gateway reports the message back to the node in an ``ERROR``
        frame.
        """
        payload = decode_json_body(body)
        version = payload.get("protocol")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version!r} "
                f"(gateway speaks {PROTOCOL_VERSION})"
            )
        try:
            record = str(payload["record"])
            channel = int(payload["channel"])
            config = SystemConfig(**payload["config"])
        except (
            KeyError,
            TypeError,
            ValueError,
            OverflowError,
            ConfigurationError,
        ) as exc:
            raise ProtocolError(f"invalid handshake config: {exc}") from exc
        for name, cap in (
            ("n", MAX_WINDOW_SAMPLES),
            ("max_iterations", MAX_SOLVER_ITERATIONS),
            ("keyframe_interval", MAX_KEYFRAME_INTERVAL),
        ):
            if getattr(config, name) > cap:
                raise ProtocolError(
                    f"handshake {name}={getattr(config, name)} exceeds "
                    f"the cap of {cap}"
                )
        codebook_payload = payload.get("codebook")
        codebook = None
        if codebook_payload is not None:
            try:
                codebook = Codebook.from_payload(codebook_payload)
            except CodebookError as exc:
                raise ProtocolError(
                    f"invalid handshake codebook: {exc}"
                ) from exc
        precision = payload.get("precision", "float64")
        if precision not in BACKENDS:
            raise ProtocolError(
                f"invalid handshake precision {precision!r}"
            )
        fec = bool(payload.get("fec", False))
        try:
            resume = int(payload.get("resume", 0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"invalid handshake resume: {exc}") from exc
        if not 0 <= resume < 1 << 16:
            raise ProtocolError(
                f"handshake resume {resume} outside the 16-bit "
                "sequence space"
            )
        return cls(
            record=record,
            channel=channel,
            config=config,
            codebook=codebook,
            precision=precision,
            fec=fec,
            resume=resume,
            # a declared resume point always means continuation; the
            # explicit flag covers the resume == 0 replay case
            resumed=bool(payload.get("resumed", False)) or resume > 0,
        )
