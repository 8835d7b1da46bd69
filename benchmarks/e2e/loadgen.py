"""The benchmark's load generator: absolute-schedule node links.

:class:`~repro.ingest.client.NodeClient` paces by sleeping *after*
each send, so its schedule drifts with the system it loads.  A
:class:`LoadLink` instead sends pre-encoded frames on an absolute
schedule — window ``k`` is due at ``t0 + offsets[k]`` and the sender
sleeps only the remainder — and stamps every ``DECODED`` ack by
sequence on receipt, so latency is ``ack_recv - due``: generator
lateness, socket wait and recovery hold all count.  Unpaced (all
offsets 0) every window is due at ``t0``, which makes the link a
batch job bounded by the gateway's backpressure.

The bytes put on the wire are exactly a ``NodeClient``'s for the same
inputs (``test_e2e_smoke.py`` pins it, clean and ``fec``): same HELLO,
one PARITY frame per keyframe epoch written just before the next
keyframe, NACKs answered from the same bounded ring, same BYE.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.coding.fec import encode_parity_body
from repro.core.packets import EncodedPacket, PacketKind
from repro.ingest.channel import HOLD_CAP_EPOCHS, LossyChannel, LossyLink
from repro.ingest.protocol import (
    FrameKind,
    Handshake,
    decode_json_body,
    encode_frame,
    encode_json_frame,
    read_frame,
)

clock = time.perf_counter


@dataclass
class LinkPlan:
    """Everything one link will put on the wire, encoded in set-up."""

    record: str
    hello: bytes
    #: PACKET frame of window k (sequence == k: runs stay < 2^16 windows)
    frames: list[bytes]
    keyframe: list[bool]
    #: PARITY frame written just before window k's frame (k a keyframe)
    parity_before: dict[int, bytes]
    parity_final: bytes | None
    bye: bytes
    ring_diffs: int
    ring_keyframes: int


def plan_link(system, record_name: str, packets: list[EncodedPacket], fec: bool) -> LinkPlan:
    """Pre-encode one link's frames in ``NodeClient.run`` wire order."""
    if len(packets) >= 1 << 16:
        raise ValueError("loadgen assumes sequence == window index")
    handshake = Handshake(
        record=record_name,
        channel=0,
        config=system.config,
        codebook=system.encoder.codebook,
        precision=system.decoder.precision,
        fec=fec,
    )
    bodies = [packet.to_bytes() for packet in packets]
    keyframe = [packet.kind is PacketKind.KEYFRAME for packet in packets]
    parity_before: dict[int, bytes] = {}
    epoch_base: int | None = None
    epoch_bodies: list[bytes] = []

    def parity_frame() -> bytes | None:
        # an epoch folds its difference packets only, and needs two
        if epoch_base is None or len(epoch_bodies) < 2:
            return None
        return encode_frame(
            FrameKind.PARITY, encode_parity_body(epoch_base, epoch_bodies)
        )

    if fec:
        for k, body in enumerate(bodies):
            if keyframe[k]:
                frame = parity_frame()
                if frame is not None:
                    parity_before[k] = frame
                epoch_base = (packets[k].sequence + 1) % (1 << 16)
                epoch_bodies = []
            elif epoch_base is not None:
                epoch_bodies.append(body)
    interval = system.config.keyframe_interval
    return LinkPlan(
        record=record_name,
        hello=handshake.to_frame(),
        frames=[encode_frame(FrameKind.PACKET, body) for body in bodies],
        keyframe=keyframe,
        parity_before=parity_before,
        parity_final=parity_frame() if fec else None,
        bye=encode_json_frame(FrameKind.BYE, {"windows": len(packets)}),
        ring_diffs=HOLD_CAP_EPOCHS * interval,
        ring_keyframes=HOLD_CAP_EPOCHS,
    )


@dataclass
class LinkReport:
    """What one link observed; times are ``perf_counter`` seconds."""

    record: str
    stream_id: int | None = None
    due: list[float] = field(default_factory=list)
    sent_at: list[float] = field(default_factory=list)
    #: first DECODED receipt per sequence
    ack_recv: dict[int, float] = field(default_factory=dict)
    acked: int = 0
    error: str | None = None
    packet_bytes: int = 0
    parity_bytes: int = 0
    retransmit_bytes: int = 0
    backlog_max: int = 0

    @property
    def sent(self) -> int:
        return len(self.sent_at)

    @property
    def wire_bytes(self) -> int:
        """Data-plane bytes the node transmitted (HELLO/BYE excluded
        so the per-window figure does not depend on run length)."""
        return self.packet_bytes + self.parity_bytes + self.retransmit_bytes


class LoadLink:
    """One node link driven on an absolute schedule."""

    def __init__(
        self,
        plan: LinkPlan,
        offsets: list[float],
        lossy_channel: LossyChannel | None = None,
    ) -> None:
        if len(offsets) != len(plan.frames):
            raise ValueError("need one due offset per window")
        self.plan = plan
        #: seconds after ``t0`` each window is due, non-decreasing
        self.offsets = offsets
        self.lossy_channel = lossy_channel
        #: ground truth of the simulated radio (``None`` on a clean link)
        self.link: LossyLink | None = None
        self.report = LinkReport(record=plan.record)
        self._reader = None
        self._writer = None
        # prefix counts, for the NodeClient-equivalent retransmit ring
        self._diffs_before = [0]
        for is_key in plan.keyframe:
            self._diffs_before.append(self._diffs_before[-1] + (not is_key))

    async def connect(self, host: str, port: int) -> None:
        """Dial the gateway over TCP and :meth:`open` the link."""
        await self.open(*await asyncio.open_connection(host, port))

    async def open(self, reader, writer) -> None:
        """Shake hands over an established duplex link and read the
        WELCOME (all before ``t0``)."""
        if self.lossy_channel is not None and self.lossy_channel.impairs:
            self.link = self.lossy_channel.wrap(writer)
            writer = self.link
        self._reader, self._writer = reader, writer
        writer.write(self.plan.hello)
        await writer.drain()
        frame = await read_frame(reader)
        if frame is None or frame[0] is not FrameKind.WELCOME:
            detail = "EOF" if frame is None else frame[0].name
            raise ConnectionError(f"expected WELCOME, got {detail}")
        stream_id = decode_json_body(frame[1]).get("stream_id")
        if stream_id is not None:
            self.report.stream_id = int(stream_id)

    async def run(self, t0: float) -> LinkReport:
        """Send every window (window k due at ``t0 + offsets[k]``),
        consume acks until all are in or the gateway closes."""
        receiver = asyncio.create_task(self._receive())
        try:
            await self._send(t0)
            await receiver
        finally:
            if not receiver.done():
                receiver.cancel()
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
        return self.report

    async def _send(self, t0: float) -> None:
        plan, report, writer = self.plan, self.report, self._writer
        for k, frame in enumerate(plan.frames):
            due = t0 + self.offsets[k]
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            if report.error is not None:
                return
            report.due.append(due)
            report.sent_at.append(clock())
            parity = plan.parity_before.get(k)
            if parity is not None:
                writer.write(parity)
                report.parity_bytes += len(parity)
            writer.write(frame)
            report.packet_bytes += len(frame)
            report.backlog_max = max(
                report.backlog_max, report.sent - report.acked
            )
            await writer.drain()
        if plan.parity_final is not None:
            writer.write(plan.parity_final)
            report.parity_bytes += len(plan.parity_final)
        writer.write(plan.bye)
        await writer.drain()

    def _ring_holds(self, sequence: int) -> bool:
        """Whether ``NodeClient``'s bounded ring would still hold it."""
        sent = self.report.sent
        if not 0 <= sequence < sent:
            return False
        if self.plan.keyframe[sequence]:
            later = sum(self.plan.keyframe[sequence + 1 : sent])
            return later < self.plan.ring_keyframes
        later = self._diffs_before[sent] - self._diffs_before[sequence + 1]
        return later < self.plan.ring_diffs

    async def _receive(self) -> None:
        plan, report = self.plan, self.report
        expected = len(plan.frames)
        while report.acked < expected:
            frame = await read_frame(self._reader)
            if frame is None:
                return
            now = clock()
            kind, body = frame
            if kind is FrameKind.DECODED:
                payload = decode_json_body(body)
                sequence = int(payload["sequence"])
                report.acked += 1
                report.ack_recv.setdefault(sequence, now)
            elif kind is FrameKind.NACK:
                for sequence in decode_json_body(body).get("sequences", []):
                    if not self._ring_holds(int(sequence)):
                        continue  # rolled off the ring: a miss
                    again = plan.frames[int(sequence)]
                    self._writer.write(again)
                    report.retransmit_bytes += len(again)
                await self._writer.drain()
            else:
                report.error = (
                    decode_json_body(body).get("error", "unknown")
                    if kind is FrameKind.ERROR
                    else f"unexpected frame kind {kind.name}"
                )
                return
