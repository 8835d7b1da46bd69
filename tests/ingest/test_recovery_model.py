"""Stateful model of fec stream recovery (``repro.ingest.channel``).

Hypothesis drives one node -> gateway link through random interleavings
of sends, drops, duplicates, reorders by up to two frames, CRC
corruption, ``PARITY`` frames (delivered or lost), retransmit answers
to the gateway's ``NACK``s (each delivered or lost) and the closing
``BYE``.  The gateway side is one :class:`StreamRecovery` over its
:class:`SequenceTracker` and :class:`ResyncAnchor`, fed each frame the
moment the simulated radio delivers it.

Checked after every step:

- the books balance: ``accepted + lost + resynced`` equals the tracker's
  expected sequence (every window behind it is charged exactly once);
- :class:`Reference` accepts every release: stream order, each window
  once, and a difference window only behind its unbroken chain back to
  its keyframe;
- every accepted window decodes to the clean stream's column;
- NACKs never exceed ``nack_budget`` within one hold, and a NACK sent
  while a plain difference frame is processed names only gaps that have
  ``NACK_AFTER_FRAMES`` received frames held ahead of them (keyframe,
  ``PARITY`` and ``BYE`` arrivals are the other triggers).

At stream end: ``decoded + lost + resynced == declared``, and the live
verdicts and accounting equal a ``replay_survivors(fec=True)`` run over
the same delivered frames.

Retransmits are answered before and after ``BYE``, until the post-``BYE``
deadline gives the open gap up.  The recorded delivery carries the
``BYE`` where it arrived, as :class:`LossyLink` records it, so
:func:`replay_survivors` reveals the tail gap at the same point the live
machine did and a retransmit that fills it counts alike on both sides.

Time box: ``max_examples`` x ``stateful_step_count`` below keeps the
model at ~5 s of the tier-1 run on a 2-core 2.1 GHz Xeon.
"""

from __future__ import annotations

import functools
import json

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.core.decoder import PacketPayloadDecoder
from repro.core.packets import EncodedPacket, PacketKind
from repro.coding.fec import encode_parity_body
from repro.ecg import SyntheticMitBih
from repro.errors import PacketFormatError
from repro.ingest import (
    NACK_AFTER_FRAMES,
    FrameKind,
    FrameVerdict,
    SequenceTracker,
    StreamRecovery,
    encoded_packets,
    replay_survivors,
)

INTERVAL = 4
WINDOWS = 48
FATES = ("deliver", "drop", "duplicate", "corrupt", "reorder1", "reorder2")


@functools.lru_cache(maxsize=None)
def _stream():
    """One calibrated stream: config, codebook, packets, clean columns."""
    config = SystemConfig(
        n=256, m=128, d=8, levels=4, max_iterations=400, tolerance=1e-4,
        keyframe_interval=INTERVAL,
    )
    record = SyntheticMitBih(
        duration_s=WINDOWS * config.packet_seconds + 4.0, seed=2011
    ).load("100")
    system = EcgMonitorSystem(config)
    system.calibrate(record)
    packets = encoded_packets(system, record, max_packets=WINDOWS)
    codebook = system.encoder.codebook
    clean = PacketPayloadDecoder(config, codebook=codebook).measurement_block(
        packets, np.float64
    )
    return config, codebook, packets, clean


class Reference:
    """What any correct receiver of this stream may release."""

    def __init__(self, interval: int) -> None:
        self.interval = interval
        self.accepted: list[int] = []

    def accept(self, sequence: int, sent: int) -> None:
        assert sequence < sent, f"{sequence} accepted before it was sent"
        assert not self.accepted or sequence > self.accepted[-1], (
            f"{sequence} admitted after {self.accepted[-1]}"
        )
        keyframe = sequence - sequence % self.interval
        chain = self.accepted[len(self.accepted) - (sequence - keyframe):]
        assert sequence == keyframe or chain == list(range(keyframe, sequence)), (
            f"difference {sequence} accepted over a broken chain {chain}"
        )
        self.accepted.append(sequence)


class RecoveryModel(RuleBasedStateMachine):
    @initialize(budget=st.sampled_from([1, 2, 8]))
    def start(self, budget):
        config, codebook, packets, clean = _stream()
        self.config, self.codebook = config, codebook
        self.packets, self.clean = packets, clean
        self.budget = budget
        self.payload = PacketPayloadDecoder(config, codebook=codebook)
        self.tracker = SequenceTracker()
        self.recovery = StreamRecovery(
            self.tracker,
            PacketPayloadDecoder(config, codebook=codebook),
            fec=True,
            nack_budget=budget,
            on_nack=self._on_nack,
        )
        self.reference = Reference(config.keyframe_interval)
        self.sent = 0
        self.epoch_base: int | None = None
        self.epoch: list[bytes] = []
        #: reordered frames on the air: [frames still to pass, kind, body]
        self.in_flight: list[list] = []
        #: (kind, body) in delivery order: the replay's input
        self.delivered: list[tuple[int, bytes]] = []
        self.released: set[int] = set()
        self.owed: list[int] = []
        self.hold_nacks = 0
        self.trigger: str | None = None
        self.ended = False
        self.closed = False

    # -- the node and its radio ---------------------------------------------
    def _air(self, kind: FrameKind, body: bytes, fate: str) -> None:
        if fate == "drop":
            self._tick()
            return
        if fate == "corrupt":
            body = body[:-1] + bytes([body[-1] ^ 0x01])
        if fate == "duplicate":
            self._deliver(kind, body)
        if fate.startswith("reorder"):
            self.in_flight.append([int(fate[-1]), kind, body])
            return
        self._deliver(kind, body)

    def _deliver(self, kind: FrameKind, body: bytes) -> None:
        self._arrive(kind, body)
        self._tick()

    def _tick(self) -> None:
        due = []
        for entry in self.in_flight:
            entry[0] -= 1
            if entry[0] <= 0:
                due.append(entry)
        for entry in due:
            self.in_flight.remove(entry)
            self._arrive(entry[1], entry[2])

    def _flush_air(self) -> None:
        while self.in_flight:
            _, kind, body = self.in_flight.pop(0)
            self._arrive(kind, body)

    def _parity(self, lost: bool) -> None:
        """The PARITY frame ``NodeClient`` writes to close an epoch."""
        if self.epoch_base is None or len(self.epoch) < 2:
            return
        body = encode_parity_body(self.epoch_base, self.epoch)
        self._air(FrameKind.PARITY, body, "drop" if lost else "deliver")

    # -- the gateway side ----------------------------------------------------
    def _arrive(self, kind: FrameKind, body: bytes) -> None:
        self.delivered.append((int(kind), body))
        if kind is FrameKind.PARITY:
            self._run("parity", self.recovery.on_parity, body)
            return
        try:
            is_key = EncodedPacket.from_bytes(body).kind is PacketKind.KEYFRAME
        except PacketFormatError:
            is_key = False
        self._run(
            "keyframe" if is_key else "packet", self.recovery.on_packet, body
        )

    def _run(self, trigger: str, call, *args) -> None:
        if not self.recovery.holding:
            self.hold_nacks = 0
        self.trigger = trigger
        events = call(*args)
        self.trigger = None
        for verdict, packet in events:
            if packet is None:
                continue
            if verdict in (FrameVerdict.ACCEPT, FrameVerdict.RESYNC_SKIP):
                self.released.add(packet.sequence)
            if verdict is FrameVerdict.ACCEPT:
                self.reference.accept(packet.sequence, self.sent)
                column = self.payload.quantizer.dequantize(
                    self.payload.decode_payload(packet)
                )
                np.testing.assert_array_equal(
                    column, self.clean[:, packet.sequence]
                )
        if not self.recovery.holding:
            self.hold_nacks = 0

    def _held_ahead(self, sequence: int) -> int:
        """Distinct intact frames received ahead of ``sequence`` and
        not yet released by the machine."""
        ahead = set()
        for kind, body in self.delivered:
            if kind != int(FrameKind.PACKET):
                continue
            try:
                other = EncodedPacket.from_bytes(body).sequence
            except PacketFormatError:
                continue
            if other > sequence and other not in self.released:
                ahead.add(other)
        return len(ahead)

    def _on_nack(self, sequences: list[int]) -> None:
        self.hold_nacks += len(sequences)
        assert self.hold_nacks <= self.budget, (
            f"{self.hold_nacks} NACKs in one hold, budget {self.budget}"
        )
        if self.trigger == "packet":
            for sequence in sequences:
                assert self._held_ahead(sequence) >= NACK_AFTER_FRAMES, (
                    f"NACK of {sequence} with "
                    f"{self._held_ahead(sequence)} frames ahead"
                )
        self.owed.extend(sequences)

    # -- rules ---------------------------------------------------------------
    @precondition(lambda self: not self.ended and self.sent < WINDOWS)
    @rule(fate=st.sampled_from(FATES), parity_lost=st.booleans())
    def send(self, fate, parity_lost):
        packet = self.packets[self.sent]
        body = packet.to_bytes()
        if packet.kind is PacketKind.KEYFRAME:
            self._parity(parity_lost)
            self.epoch_base = packet.sequence + 1
            self.epoch = []
        elif self.epoch_base is not None:
            self.epoch.append(body)
        self.sent += 1
        self._air(FrameKind.PACKET, body, fate)

    @precondition(lambda self: not self.closed and self.owed)
    @rule(lost=st.lists(st.booleans(), min_size=1, max_size=4))
    def answer_nacks(self, lost):
        owed, self.owed = self.owed, []
        for index, sequence in enumerate(owed):
            fate = "drop" if lost[index % len(lost)] else "deliver"
            self._air(FrameKind.PACKET, self.packets[sequence].to_bytes(), fate)

    @precondition(lambda self: not self.ended)
    @rule(parity_lost=st.booleans())
    def bye(self, parity_lost):
        self._parity(parity_lost)
        self._flush_air()  # a control frame never overtakes data
        self.ended = True
        body = json.dumps({"windows": self.sent}).encode()
        self.delivered.append((int(FrameKind.BYE), body))
        self._run("bye", self.recovery.bye, self.sent)

    @precondition(lambda self: self.ended)
    @rule()
    def close(self):
        """The post-``BYE`` deadline: give up whatever is still open."""
        self.closed = True
        self._run("close", self.recovery.give_up)

    # -- invariants ----------------------------------------------------------
    @invariant()
    def books_balance(self):
        accounting = self.tracker.accounting
        assert (
            len(self.reference.accepted)
            + accounting.windows_lost
            + accounting.windows_resynced
            == self.tracker.expected
        )

    def teardown(self):
        if not self.ended:
            self.bye(parity_lost=False)
        self._run("close", self.recovery.give_up)
        assert not self.recovery.holding
        accounting = self.tracker.accounting
        assert (
            len(self.reference.accepted)
            + accounting.windows_lost
            + accounting.windows_resynced
            == self.sent
        )
        accepted, replayed = replay_survivors(
            self.config,
            self.codebook,
            self.delivered,
            windows_sent=self.sent,
            fec=True,
            nack_budget=self.budget,
        )
        assert [sequence for sequence, _ in accepted] == self.reference.accepted
        assert replayed == accounting


RecoveryModel.TestCase.settings = settings(
    max_examples=300, stateful_step_count=50
)
TestRecoveryModel = RecoveryModel.TestCase
