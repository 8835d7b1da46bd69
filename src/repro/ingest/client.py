"""Node-side link simulator: replay a record into a live gateway.

:class:`NodeClient` plays the role of the paper's body-worn sensor
node: it encodes a record channel with the unchanged integer encoder
(packets bit-identical to the offline path by construction), performs
the wire handshake, and streams ``PACKET`` frames — at the record's
true sample rate (one window every ``config.packet_seconds``), at an
accelerated pace, or as fast as the link accepts them.  It concurrently
consumes the gateway's ``DECODED`` acknowledgements, so a run reports
the end-to-end per-window decode latency a real monitor would observe.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from ..coding.fec import encode_parity_body
from ..core.batch import encode_record_windows
from ..core.packets import EncodedPacket, PacketKind
from ..core.system import EcgMonitorSystem
from ..ecg.records import Record
from ..errors import ProtocolError
from ..telemetry import NULL_METER, MetricsRegistry
from .channel import HOLD_CAP_EPOCHS, LossyChannel, LossyLink
from .protocol import (
    FrameKind,
    Handshake,
    decode_json_body,
    encode_frame,
    encode_json_frame,
    read_frame,
)

#: reconnect backoff shape: delays double from the base up to the cap,
#: each stretched by up to this fraction of jitter so nodes orphaned by
#: one gateway death do not re-dial in lockstep.  Fixed: the base is
#: the one every caller used, the cap is one window period, and the
#: jitter is seeded by the node's stream key (``record:channel``), so
#: a fleet decorrelates and every node's schedule replays exactly.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
BACKOFF_JITTER = 0.25


@dataclass
class NodeReport:
    """Outcome of one simulated node's streaming run."""

    record: str
    channel: int
    #: gateway-assigned session id (from WELCOME) — lets a caller
    #: pair this report with the gateway's IngestStreamResult exactly,
    #: even when several nodes stream the same record
    stream_id: int | None = None
    sent: int = 0
    acked: int = 0
    error: str | None = None
    #: gateway-side frame-arrival-to-reconstruction latency per window
    gateway_latencies_ms: list[float] = field(default_factory=list)
    #: per-window FISTA iterations reported in the DECODED acks
    iterations: list[int] = field(default_factory=list)
    #: wire bytes of first-transmission PACKET frames (prefix + kind +
    #: body) — the fec-off baseline cost of the stream
    packet_bytes: int = 0
    #: wire bytes of PARITY frames (tier-1 redundancy overhead)
    parity_bytes: int = 0
    #: wire bytes of NACK-answering retransmissions (tier-2 overhead)
    retransmit_bytes: int = 0
    #: PACKET frames retransmitted in answer to NACKs (or replayed
    #: from the retransmit ring after a reconnect)
    retransmits_sent: int = 0
    #: NACKed sequences the retransmit ring no longer held
    retransmit_misses: int = 0
    #: times the link was re-dialed after a mid-stream connection
    #: loss (``run_tcp`` with ``reconnect > 0``); a front-door
    #: gateway failover shows up here instead of as a node error
    reconnects: int = 0

    @property
    def max_gateway_latency_ms(self) -> float | None:
        """Worst per-window decode latency the gateway reported, or
        ``None`` when no window was ever acked — "no data" must not
        masquerade as a perfect 0.0 ms."""
        return max(self.gateway_latencies_ms, default=None)


class NodeClient:
    """Replay one record channel over a gateway link.

    Parameters
    ----------
    system:
        The node's calibrated encoder/decoder pair; only the encoder
        and its codebook are used (decoding happens at the gateway).
    record:
        The record to stream.
    channel:
        ECG lead to encode.
    max_packets:
        Cap on streamed windows (``None``: the whole record).
    interval_s:
        Pacing between ``PACKET`` frames.  ``None`` replays at the
        record's true rate (``config.packet_seconds`` — 2 s per window
        at the paper's operating point); ``0`` streams as fast as the
        link accepts frames (throughput benchmarking).
    lossy_channel:
        Optional :class:`~repro.ingest.channel.LossyChannel`: the
        node's frames pass through a seeded impairment link (drops,
        reorders, duplicates, bit flips) before reaching the
        transport, simulating the paper's wireless hop.  The
        :class:`~repro.ingest.channel.LossyLink` of the most recent
        run is kept in :attr:`last_link` so callers can read the
        ground-truth fate of every frame.
    fec:
        Enable the two-tier recovery layer (protocol v2): emit one
        XOR ``PARITY`` frame per keyframe epoch folded over the
        epoch's *difference* packets (keyframes are excluded — they
        are pinned in the retransmit ring for tier 2, and folding
        one would pad the parity to keyframe width, tripling its
        cost), keep a retransmit ring of recent packets with
        keyframes pinned, and answer the gateway's ``NACK`` frames
        with retransmissions — which also pass the lossy link, like
        any real retransmission would.  Off (the default), the node
        sends no ``PARITY`` frame and keeps no retransmit ring.
    reconnect:
        Maximum times :meth:`run_tcp` re-dials after a mid-stream
        connection loss (``0``, the default, keeps the old
        fail-fast behavior).  Each retry backs off exponentially
        from :data:`BACKOFF_BASE_S`, capped at :data:`BACKOFF_CAP_S`,
        with up to :data:`BACKOFF_JITTER` (fractional) jitter seeded
        by the stream key.  A resumed session
        declares ``resume`` in its HELLO (the next sequence it will
        carry) so the receiving gateway baselines its loss
        accounting there; an fec node additionally replays from its
        retransmit ring's last pinned keyframe, giving the new
        gateway an anchor immediately (zero resync damage), while a
        plain node resyncs at the next keyframe.
    """

    def __init__(
        self,
        system: EcgMonitorSystem,
        record: Record,
        channel: int = 0,
        max_packets: int | None = None,
        interval_s: float | None = 0.0,
        lossy_channel: LossyChannel | None = None,
        telemetry: MetricsRegistry | None = None,
        fec: bool = False,
        reconnect: int = 0,
    ) -> None:
        self.system = system
        self.record = record
        self.channel = channel
        self.max_packets = max_packets
        self.interval_s = (
            system.config.packet_seconds if interval_s is None else interval_s
        )
        self.lossy_channel = lossy_channel
        #: optional telemetry registry: the node's lossy link mirrors
        #: its frame fates into it, labeled with the stream identity
        self.telemetry = telemetry
        self.fec = bool(fec)
        self.last_link: LossyLink | None = None
        #: retransmit ring: sequence -> (is_keyframe, on-air body).
        #: Sized to the gateway's hold horizon so any sequence the
        #: gateway can still want is normally present; keyframes are
        #: pinned longer because losing one unanchors a whole epoch.
        self._ring: dict[int, tuple[bool, bytes]] = {}
        self._ring_cap = HOLD_CAP_EPOCHS * system.config.keyframe_interval
        self._ring_keyframes = HOLD_CAP_EPOCHS
        self.reconnect = int(reconnect)
        self._backoff_rng = random.Random(f"{record.name}:{channel}")
        #: packets encoded once per client, so every (re)connected
        #: session replays byte-identical frames
        self._packets: list[EncodedPacket] | None = None
        #: index of the first packet not yet sent (and drained) — the
        #: resume point after a mid-stream connection loss
        self._next_unsent = 0

    def handshake(self, resume: int = 0, resumed: bool = False) -> Handshake:
        """The HELLO this node sends (identity + codec config)."""
        return Handshake(
            record=self.record.name,
            channel=self.channel,
            config=self.system.config,
            codebook=self.system.encoder.codebook,
            precision=self.system.decoder.precision,
            fec=self.fec,
            resume=resume % (1 << 16),
            resumed=resumed or resume > 0,
        )

    def _encoded(self) -> list[EncodedPacket]:
        if self._packets is None:
            _, self._packets = encode_record_windows(
                self.system,
                self.record,
                channel=self.channel,
                max_packets=self.max_packets,
            )
        return self._packets

    def backoff_delay(self, attempt: int) -> float:
        """Delay before reconnect ``attempt`` (1-based): capped
        exponential growth plus seeded proportional jitter."""
        base = min(
            BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** max(attempt - 1, 0))
        )
        return base * (1.0 + BACKOFF_JITTER * self._backoff_rng.random())

    async def run(
        self,
        reader,
        writer,
        *,
        report: NodeReport | None = None,
        start_at: int = 0,
        resumed: bool = False,
    ) -> NodeReport:
        """Stream over an established duplex link; returns the report.

        ``report``/``start_at``/``resumed`` are the resumption
        interface used by :meth:`run_tcp`: a reconnected session keeps
        accumulating into the same report, starts at the first unsent
        packet (an fec node backs up to its last ring-pinned keyframe
        and replays the gap, counted as retransmissions), and declares
        the continuation in its HELLO so downstream merging knows its
        sequences extend the previous session's.

        Raises :class:`~repro.errors.ProtocolError` if the gateway
        refuses the handshake.
        """
        packets = self._encoded()
        if report is None:
            report = NodeReport(record=self.record.name, channel=self.channel)
        if self.lossy_channel is not None and self.lossy_channel.impairs:
            # the simulated radio hop: PACKET frames may be dropped /
            # reordered / duplicated / bit-flipped past this point
            meter = (
                self.telemetry.meter(
                    stream=f"{self.record.name}:{self.channel}"
                )
                if self.telemetry is not None
                else NULL_METER
            )
            self.last_link = self.lossy_channel.wrap(writer, meter=meter)
            writer = self.last_link
        else:
            self.last_link = None

        # an fec node resumes from its last ring-pinned keyframe at or
        # before the loss point: replaying that prefix hands the new
        # gateway an anchor immediately, so the re-routed stream loses
        # nothing to resync.  A plain node resumes exactly where it
        # stopped and eats at most keyframe_interval resync windows.
        replay_from = start_at
        if start_at and self.fec:
            anchor = max(
                (
                    sequence
                    for sequence, (is_key, _) in self._ring.items()
                    if is_key and sequence <= start_at
                ),
                default=None,
            )
            if anchor is not None:
                replay_from = anchor

        writer.write(
            self.handshake(
                resume=replay_from, resumed=resumed or start_at > 0
            ).to_frame()
        )
        await writer.drain()
        frame = await read_frame(reader)
        if frame is None:
            raise ProtocolError("gateway closed the link before WELCOME")
        kind, body = frame
        if kind is FrameKind.ERROR:
            raise ProtocolError(decode_json_body(body).get("error", "rejected"))
        if kind is not FrameKind.WELCOME:
            raise ProtocolError(f"expected WELCOME, got {kind.name}")
        welcome = decode_json_body(body)
        if welcome.get("stream_id") is not None:
            report.stream_id = int(welcome["stream_id"])

        bye_sent = False
        receiver = asyncio.create_task(
            self._receive(
                reader,
                writer,
                # acks *this session* can produce: replays are re-acked
                # by the new gateway, so a resumed session expects one
                # ack per frame it sends, not the whole-stream count
                # (report.acked keeps the cross-session total)
                len(packets) - replay_from,
                report,
                # with reconnect enabled, an EOF before this link's BYE
                # is a mid-stream loss the ack loop must surface (so
                # run_tcp re-dials) instead of ending quietly
                premature_eof_fatal=(
                    (lambda: not bye_sent) if self.reconnect else None
                ),
            )
        )
        try:
            epoch_base: int | None = None
            epoch_bodies: list[bytes] = []

            def flush_parity() -> None:
                """Emit the PARITY frame of the accumulated epoch.

                The fold covers the epoch's difference packets only
                (see the ``fec`` parameter note), and an epoch with
                fewer than two of them gets none: parity over a
                single body is a byte-for-byte duplicate (pure
                duplication, tier 2's job via the retransmit ring
                and the BYE-revealed tail gap)."""
                if len(epoch_bodies) < 2 or epoch_base is None:
                    return
                frame = encode_frame(
                    FrameKind.PARITY,
                    encode_parity_body(epoch_base, epoch_bodies),
                )
                writer.write(frame)
                report.parity_bytes += len(frame)

            for index in range(replay_from, len(packets)):
                packet = packets[index]
                is_replay = index < start_at
                if not is_replay:
                    # resume here if this link dies anywhere in this
                    # iteration: re-sending an already-delivered copy
                    # is an idempotent stale drop at the gateway,
                    # while skipping one would silently lose a window
                    self._next_unsent = index
                if receiver.done():
                    receiver.result()  # re-raises a link loss
                    break  # gateway ended the stream (ERROR frame)
                if self.interval_s and index > replay_from:
                    await asyncio.sleep(self.interval_s)
                is_keyframe = packet.kind is PacketKind.KEYFRAME
                if self.fec and is_keyframe:
                    # close the previous epoch before opening the next;
                    # the fold starts at the first difference packet
                    flush_parity()
                    epoch_base = (packet.sequence + 1) % (1 << 16)
                    epoch_bodies = []
                body = packet.to_bytes()
                frame = encode_frame(FrameKind.PACKET, body)
                writer.write(frame)
                if is_replay:
                    report.retransmit_bytes += len(frame)
                    report.retransmits_sent += 1
                else:
                    report.packet_bytes += len(frame)
                await writer.drain()
                if not is_replay:
                    report.sent += 1
                    self._next_unsent = index + 1  # repro-lint: disable=RL008 — single writer: run_tcp serializes run() attempts, so no concurrent task touches the send cursor during the drain
                if self.fec:
                    if epoch_base is not None and not is_keyframe:
                        epoch_bodies.append(body)
                    self._ring_add(packet.sequence, is_keyframe, body)
            if self.fec:
                flush_parity()  # a partial (>= 2 body) final epoch too
            # declare the sent-window count so the gateway can account
            # a trailing loss (no later packet would reveal that gap)
            writer.write(
                encode_json_frame(FrameKind.BYE, {"windows": len(packets)})
            )
            bye_sent = True
            await writer.drain()
            # a v2 link stays open past BYE: the receiver keeps
            # answering NACK retransmission requests until the gateway
            # has recovered (or given up on) every window and closes
            await receiver
        finally:
            if not receiver.done():
                receiver.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass  # a reset transport has nothing left to close
        return report

    def _ring_add(self, sequence: int, is_keyframe: bool, body: bytes) -> None:
        """Retain a sent body for retransmission, bounded: difference
        packets roll off after ``HOLD_CAP_EPOCHS`` epochs, keyframes
        are pinned for the same number of *epochs* (far longer)."""
        self._ring[sequence] = (is_keyframe, body)
        diffs = [s for s, (key, _) in self._ring.items() if not key]
        for stale in diffs[: max(0, len(diffs) - self._ring_cap)]:
            del self._ring[stale]
        keys = [s for s, (key, _) in self._ring.items() if key]
        for stale in keys[: max(0, len(keys) - self._ring_keyframes)]:
            del self._ring[stale]

    async def run_tcp(self, host: str, port: int) -> NodeReport:
        """Connect over TCP and stream (the CLI/simulation entry).

        With ``reconnect > 0``, a mid-stream connection loss — a
        gateway death behind a federation front door, a dropped
        link — is retried with capped exponential backoff + jitter,
        resuming from the first unsent packet, instead of surfacing
        as a node error.  The attempt budget refills whenever a
        session makes progress, so ``reconnect`` bounds *consecutive*
        fruitless dials, not lifetime failovers.
        """
        report = NodeReport(record=self.record.name, channel=self.channel)
        self._next_unsent = 0
        attempt = 0
        while True:
            start_at = self._next_unsent
            try:
                reader, writer = await asyncio.open_connection(host, port)
                return await self.run(
                    reader,
                    writer,
                    report=report,
                    start_at=start_at,
                    # any re-dial continues the stream's sequence space,
                    # even one that made no progress (the gateway may
                    # hold decoded-but-unacked windows from the cut
                    # session; its merge must not double-count them)
                    resumed=report.reconnects > 0,
                )
            except (ConnectionError, OSError):
                if self._next_unsent > start_at:
                    attempt = 0  # progress: refill the retry budget
                if attempt >= self.reconnect:
                    raise
                attempt += 1
                report.reconnects += 1
                await asyncio.sleep(self.backoff_delay(attempt))

    async def _receive(
        self,
        reader,
        writer,
        expected: int,
        report: NodeReport,
        premature_eof_fatal=None,
    ) -> None:
        """Consume DECODED acks (and answer NACKs) until this session
        is fully acked or the gateway closes the link.

        ``expected`` is *session-local* — the frames this link will
        carry — because ``report.acked`` spans reconnected sessions
        and replayed windows are acked again by the new gateway;
        counting those against the whole-stream total made a resumed
        session stop listening (and sending) early.

        ``premature_eof_fatal`` (a nullary callable, or ``None``) is
        the reconnect hook: when it returns true at EOF, the link
        died before this session's ``BYE`` went out, and the loss is
        raised as :class:`ConnectionResetError` for :meth:`run_tcp`
        to retry rather than swallowed as an orderly close.
        """
        acked_here = 0
        while acked_here < expected:
            try:
                frame = await read_frame(reader)
            except ProtocolError as exc:
                if premature_eof_fatal is not None and premature_eof_fatal():
                    # a link cut mid-frame surfaces as a truncated
                    # frame; for a reconnecting node that is a loss to
                    # retry, not a protocol violation to report
                    raise ConnectionResetError(str(exc)) from exc
                raise
            if frame is None:
                if premature_eof_fatal is not None and premature_eof_fatal():
                    raise ConnectionResetError(
                        "gateway closed the link mid-stream"
                    )
                break
            kind, body = frame
            if kind is FrameKind.DECODED:
                payload = decode_json_body(body)
                acked_here += 1
                report.acked += 1
                report.gateway_latencies_ms.append(
                    float(payload.get("latency_ms", 0.0))
                )
                report.iterations.append(int(payload.get("iterations", 0)))
            elif kind is FrameKind.NACK:
                self._retransmit(writer, decode_json_body(body), report)
                await writer.drain()
            elif kind is FrameKind.ERROR:
                report.error = decode_json_body(body).get("error", "unknown")
                break
            else:
                # a gateway never sends handshake/upstream kinds here; a
                # future protocol frame must not stall the ack loop
                report.error = f"unexpected frame kind {kind.name}"
                break

    def _retransmit(self, writer, payload: dict, report: NodeReport) -> None:
        """Answer one NACK from the retransmit ring.  Retransmissions
        go through the same (possibly lossy) writer as first copies —
        a retransmitted frame can be lost too."""
        for sequence in payload.get("sequences", []):
            held = self._ring.get(int(sequence))
            if held is None:
                report.retransmit_misses += 1
                continue
            frame = encode_frame(FrameKind.PACKET, held[1])
            writer.write(frame)
            report.retransmit_bytes += len(frame)
            report.retransmits_sent += 1


def encoded_packets(
    system: EcgMonitorSystem,
    record: Record,
    channel: int = 0,
    max_packets: int | None = None,
) -> list[EncodedPacket]:
    """The exact packets a :class:`NodeClient` run would put on the
    wire — the offline reference for equivalence checks."""
    _, packets = encode_record_windows(
        system, record, channel=channel, max_packets=max_packets
    )
    return packets
