"""Lossy-channel semantics of the wire path: impairment + recovery.

The paper's node→coordinator link is a real wireless channel, so the
live path cannot assume a perfect pipe: ``PACKET`` frames may be
dropped, reordered, duplicated or bit-flipped in flight.  This module
holds *both* sides of that reality:

- :class:`LossyChannel` / :class:`LossyLink` — a seeded impairment
  injector that wraps any node-side writer (the in-process loopback or
  a real TCP ``StreamWriter``) and damages ``PACKET`` frames at
  configurable rates, recording the exact fate of every frame so a
  bench can replay the surviving packet set offline;
- :class:`SequenceTracker` + :class:`ResyncAnchor` +
  :func:`admit_packet` — the receiver-side sequence-gap recovery
  state machine the gateway runs per session:
  duplicates and stale reordered frames are dropped idempotently, a
  gap or a corrupt CRC triggers a *resync* (difference packets are
  discarded until the next keyframe re-anchors stage 2), and every
  discarded window is accounted in :class:`LossAccounting`;
- :class:`StreamRecovery` — the two-tier recovery front-end layered
  *before* :func:`admit_packet` for fec-enabled (protocol v2) streams:
  a sequence gap opens a *hold* instead of an immediate resync, the
  epoch's ``PARITY`` frame reconstructs a single missing body locally
  (tier 1, :mod:`repro.coding.fec`), a ``NACK`` solicits retransmission
  of a gap once :data:`NACK_AFTER_FRAMES` later frames have passed it
  (tier 2), and only when both tiers fail does the held run drain
  through the untouched keyframe-resync path.  Every trigger is
  frame-driven (frames passing a gap, parity arrival, next keyframe,
  BYE, hold cap, retransmit budget), so the live gateway and the
  offline replay make identical decisions from the same frame stream;
- :func:`replay_survivors` — the offline reference: the same state
  machine applied to a recorded delivered-frame sequence, used by
  ``tests/ingest/test_gateway_hybrid.py`` and every ``benchmarks/e2e``
  run (``check_damage_accounting``) to pin that the live gateway's
  delivered-window output is bit-identical to an offline decode of the
  same surviving packet set.

Damage is bounded by design: the encoder emits a raw keyframe every
``keyframe_interval`` packets (``SystemConfig.keyframe_interval``), so
one loss event can cost at most ``keyframe_interval`` windows — the
lost window(s) plus the unusable difference packets up to the next
keyframe.  The accounting invariant, per stream::

    windows_accepted + windows_lost + windows_resynced == windows_sent

where ``windows_accepted`` includes recovered windows — a window
reconstructed from parity or filled by a retransmission counts under
``windows_recovered_parity`` / ``windows_recovered_retransmit`` *and*
decodes like any accepted window, but is never double-counted as lost.
(``frames_duplicate``, ``frames_corrupt`` and
``frames_late_retransmit`` count *frames*, not windows: a duplicate's
window was already accepted, a corrupt frame's window surfaces through
the sequence gap it leaves behind, and a late retransmit's window was
already charged when recovery gave up on it.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..coding.fec import covered_sequences, decode_parity_body, recover_body
from ..core.decoder import PacketPayloadDecoder
from ..core.packets import EncodedPacket, PacketKind
from ..errors import ConfigurationError, PacketFormatError
from ..telemetry import NULL_METER, Meter
from .protocol import FrameKind

_SEQ_MOD = 1 << 16
_SEQ_HALF = 1 << 15
_FRAME_PREFIX = 4  # u32be length


def sequence_delta(expected: int, sequence: int) -> int:
    """Signed distance from ``expected`` to ``sequence`` mod 2^16.

    Positive: ``sequence`` is ahead (a gap of that many windows was
    lost); negative: behind (a duplicate or stale reordered frame);
    zero: exactly the expected next window.  Half-range comparison, so
    the 16-bit wraparound at 65535→0 is a delta of 1, not -65535.
    """
    return (sequence - expected + _SEQ_HALF) % _SEQ_MOD - _SEQ_HALF


class FrameVerdict(enum.Enum):
    """Outcome of one received ``PACKET`` frame under gap recovery."""

    #: in-sequence and decodable: hand the packet to stages 1-2
    ACCEPT = "accept"
    #: CRC (or framing) failure: frame discarded, stream resyncs
    CORRUPT = "corrupt"
    #: duplicate or stale reordered frame: discarded idempotently
    STALE = "stale"
    #: difference packet during resync: discarded, waiting for the
    #: next keyframe to re-anchor the difference chain
    RESYNC_SKIP = "resync_skip"
    #: a copy of a window the recovery layer already gave up on (its
    #: gap was charged and the stream resynced past it): discarded,
    #: but accounted under ``frames_late_retransmit`` instead of
    #: vanishing into the duplicate counter
    LATE_RETRANSMIT = "late_retransmit"


@dataclass(kw_only=True)
class LossAccounting:
    """Per-stream damage counters of the gap-recovery state machine.

    The one declaration of the damage vocabulary: the gateway's
    per-stream result and aggregate stats views inherit these fields
    (keyword-only, so a subclass may lead with required fields of its
    own) instead of re-typing them.
    """

    #: windows that never arrived (sequence gaps, including the tail
    #: gap closed by a BYE frame that declares the sent-window count)
    windows_lost: int = 0
    #: difference packets that arrived but were discarded because the
    #: stream was resyncing (unusable until the next keyframe)
    windows_resynced: int = 0
    #: PACKET frames whose on-air bytes failed the CRC/format check
    frames_corrupt: int = 0
    #: frames dropped idempotently: true duplicates and reordered
    #: frames arriving after their window was already counted lost
    frames_duplicate: int = 0
    #: windows reconstructed locally from an epoch ``PARITY`` frame
    #: (tier-1 recovery) and then accepted — never also counted lost
    windows_recovered_parity: int = 0
    #: windows filled by a retransmitted (or late-reordered) copy while
    #: recovery was holding the gap open (tier-2) and then accepted
    windows_recovered_retransmit: int = 0
    #: retransmitted frames that arrived only after recovery gave up on
    #: their window (the gap was already charged and the stream
    #: resynced past it): dropped, but visible here instead of blending
    #: into ``frames_duplicate``
    frames_late_retransmit: int = 0

    @property
    def windows_recovered(self) -> int:
        """Windows that would have been damaged but were recovered."""
        return self.windows_recovered_parity + self.windows_recovered_retransmit


class SequenceTracker:
    """Receiver-side expected-sequence state of one packet stream.

    The wire protocol guarantees a stream's first window is sequence 0
    (the node encoder resets before streaming), so the tracker starts
    expecting 0 and a lost *first* packet is accounted like any other
    gap.

    Damage events flow through the ``count_*`` methods, which keep the
    :class:`LossAccounting` view and publish the same event to the
    tracker's telemetry :class:`~repro.telemetry.Meter` (the gateway
    binds one labeled with the stream identity; the default null meter
    keeps offline replays dependency-free).
    """

    def __init__(self, meter: Meter = NULL_METER) -> None:
        self.expected = 0
        self.accounting = LossAccounting()
        self.meter = meter

    def delta(self, sequence: int) -> int:
        """Signed distance of ``sequence`` from the expected next one."""
        return sequence_delta(self.expected, sequence)

    def advance(self, sequence: int) -> None:
        """Move past ``sequence``: the next expected follows it."""
        self.expected = (sequence + 1) % _SEQ_MOD

    # -- damage accounting (view + telemetry, one call site each) ------
    def count_lost(self, windows: int) -> None:
        self.accounting.windows_lost += windows
        self.meter.inc("ingest_windows_lost", windows)

    def count_resynced(self) -> None:
        self.accounting.windows_resynced += 1
        self.meter.inc("ingest_windows_resynced")

    def count_corrupt(self) -> None:
        self.accounting.frames_corrupt += 1
        self.meter.inc("ingest_frames_corrupt")

    def count_duplicate(self) -> None:
        self.accounting.frames_duplicate += 1
        self.meter.inc("ingest_frames_duplicate")

    def count_recovered_parity(self) -> None:
        self.accounting.windows_recovered_parity += 1
        self.meter.inc("ingest_windows_recovered_parity")

    def count_recovered_retransmit(self) -> None:
        self.accounting.windows_recovered_retransmit += 1
        self.meter.inc("ingest_windows_recovered_retransmit")

    def count_late_retransmit(self) -> None:
        self.accounting.frames_late_retransmit += 1
        self.meter.inc("ingest_frames_late_retransmit")

    def close_stream(self, windows_sent: int) -> None:
        """Account the tail gap of an orderly stream end.

        A trailing loss leaves no later packet to reveal the gap, so
        the ``BYE`` frame may declare how many windows the node sent;
        any still-missing tail is charged to ``windows_lost``.
        """
        final = windows_sent % _SEQ_MOD
        gap = self.delta(final)
        if gap > 0:
            self.count_lost(gap)
            self.expected = final


class ResyncAnchor:
    """Whether a stream's difference chain is anchored on a keyframe.

    The resync half of gap recovery: a gap or a corrupt frame drops
    the anchor (:meth:`resync`), difference packets are skipped while
    it is down, and the next keyframe — or the stream's first; joining
    mid-stream looks exactly like a loss — raises it again.

    The state lives beside the :class:`SequenceTracker`, not in the
    payload decoder, because admission runs *ahead of* decode: a
    recovery drain admits a whole held run before the caller decodes
    any of it.  Charging a gap mid-run must not reset the codec
    reference under an already-accepted packet earlier in that run,
    and decoding a drained keyframe must not clear the resync a later
    gap of the run just set.  Accepted packets decode in admission
    order, where every difference packet follows the keyframe or
    difference it was encoded against, so the decoder needs no resync
    flag of its own.
    """

    def __init__(self) -> None:
        self.anchored = False

    def resync(self) -> None:
        """A gap or corrupt frame made the difference reference stale."""
        self.anchored = False

    def skip_to_keyframe(self, packet: EncodedPacket) -> bool:
        """Whether ``packet`` must be discarded to reach a keyframe."""
        if packet.kind is PacketKind.KEYFRAME:
            self.anchored = True
        return not self.anchored


def admit_packet(
    tracker: SequenceTracker,
    anchor: ResyncAnchor,
    body: bytes,
) -> tuple[FrameVerdict, EncodedPacket | None]:
    """Run one wire ``PACKET`` body through sequence-gap recovery.

    The single admission decision shared by the live gateway and the
    offline :func:`replay_survivors` reference — one implementation is
    what makes the two provably agree.  Updates ``tracker`` accounting
    and the stream's ``anchor``; the caller decodes the packet (stages
    1-2) only on :attr:`FrameVerdict.ACCEPT`, in admission order.
    """
    try:
        packet = EncodedPacket.from_bytes(body)
    except PacketFormatError:
        # A frame the radio damaged: the CRC catches it, the stream
        # survives.  Its sequence is unreadable, so the expected
        # counter holds still — if the corrupt frame *was* the expected
        # window, the next good frame exposes the gap and the window is
        # charged to windows_lost there.  The difference reference may
        # now be stale, so stage 2 resyncs to the next keyframe.
        tracker.count_corrupt()
        anchor.resync()
        return FrameVerdict.CORRUPT, None
    delta = tracker.delta(packet.sequence)
    if delta < 0:
        tracker.count_duplicate()
        return FrameVerdict.STALE, packet
    if delta > 0:
        tracker.count_lost(delta)
        anchor.resync()
    tracker.advance(packet.sequence)
    if anchor.skip_to_keyframe(packet):
        tracker.count_resynced()
        return FrameVerdict.RESYNC_SKIP, packet
    return FrameVerdict.ACCEPT, packet


def header_sequence(body: bytes) -> int:
    """Sequence field of a ``PACKET`` body read from its header (sync,
    kind, seq-hi, seq-lo) without the CRC check; -1 if too short."""
    if len(body) >= 4:
        return (body[2] << 8) | body[3]
    return -1


#: hold cap in keyframe epochs: a gap still unfilled after this many
#: epochs of held frames will never be (the node's retransmit ring has
#: rolled past it), so recovery gives up frame-deterministically
HOLD_CAP_EPOCHS = 4

#: fast retransmit, after TCP's duplicate-ACK threshold (RFC 5681): a
#: missing sequence is NACKed once this many frames have joined the
#: hold ahead of it, and again after each further this-many, until it
#: is filled or the hold's NACK budget is spent.  The lossy link
#: reorders frames by up to two places, so a lower threshold NACKs —
#: and the node retransmits — plain reorders.
NACK_AFTER_FRAMES = 3

#: how a held gap got filled (the tier that recovered the window)
_VIA_PARITY = "parity"
_VIA_RETRANSMIT = "retransmit"


class StreamRecovery:
    """Two-tier (parity + NACK) recovery front-end of one stream.

    Sits between the wire and :func:`admit_packet`.  With ``fec`` off
    every ``PACKET`` body flows straight through the plain admission
    path — bit-identical to a v1 stream.  With ``fec`` on, a sequence
    gap *holds* subsequent frames un-admitted (and un-charged) while
    the tiers try to close it:

    1. the epoch's ``PARITY`` frame XOR-reconstructs a single missing
       body locally (CRC-validated, zero round trips);
    2. a missing sequence is ``NACK``ed via ``on_nack`` once
       :data:`NACK_AFTER_FRAMES` frames have joined the hold ahead of
       it, and again after each further :data:`NACK_AFTER_FRAMES` (a
       lost retransmit), unless parity fills it first; a keyframe
       arriving over the gap, a parity frame that cannot cover its
       epoch and the ``BYE``-revealed tail NACK at once.  The node's
       retransmission fills the gap — a retransmit-aware fill, not a
       duplicate;
    3. when the hold's NACK budget is spent, the hold cap overflows,
       or the stream closes with the gap still open, the held run
       drains through the untouched :func:`admit_packet`
       keyframe-resync path, and any later copy of a given-up window
       is classified :attr:`FrameVerdict.LATE_RETRANSMIT`.

    ``nack_budget`` bounds the NACKs of one hold, re-NACKs included;
    it refills when the hold drains or gives up, so a long lossy
    stream keeps recovering.  :attr:`nacks_sent` counts the stream's
    lifetime total.

    Every decision is frame-driven — frames joining the hold, parity
    and keyframe arrival, ``BYE``, hold cap, budget — never
    wall-clock, so the live gateway and the offline
    :func:`replay_survivors` reference reach identical verdicts and
    accounting from the same delivered-frame sequence.  (The gateway's
    post-``BYE`` read deadline only fires when an awaited retransmit
    never arrives, in which case both sides converge through the same
    :meth:`give_up`.)

    Each method returns the admission events it released, in decode
    order, as ``(verdict, packet)`` pairs; the caller decodes
    :attr:`FrameVerdict.ACCEPT` packets exactly as before.
    """

    def __init__(
        self,
        tracker: SequenceTracker,
        payload: PacketPayloadDecoder,
        *,
        fec: bool = False,
        nack_budget: int = 8,
        on_nack: Callable[[list[int]], None] | None = None,
    ) -> None:
        self.tracker = tracker
        #: the stream's stage-2 decoder: identifies the stream to
        #: observers (the e2e tracer keys spans by it) and supplies the
        #: epoch length; recovery itself never touches stage-2 state
        self.payload = payload
        self.fec = bool(fec)
        self.nack_budget = int(nack_budget)
        self.on_nack = on_nack
        self._anchor = ResyncAnchor()
        interval = payload.config.keyframe_interval
        self._hold_cap = HOLD_CAP_EPOCHS * interval
        self._body_window = 2 * interval
        #: held frame bodies behind an open gap, keyed by sequence
        self._pending: dict[int, bytes] = {}
        #: open-gap sequences still wanted (NACKable / parity targets),
        #: each mapped to :attr:`_joined` when it went missing
        self._missing: dict[int, int] = {}
        #: which tier filled a missing sequence, for accounting on drain
        self._via: dict[int, str] = {}
        #: highest sequence noted while holding (``None`` in flow state)
        self._horizon: int | None = None
        #: frames that joined the current hold (each ahead of every
        #: sequence then missing): the fast-retransmit clock
        self._joined = 0
        #: recently admitted bodies, retained for parity reconstruction
        self._bodies: dict[int, bytes] = {}
        #: NACKs per sequence, and in total, within the current hold
        self._nacked: dict[int, int] = {}
        self._nack_spent = 0
        self._nacks_total = 0
        #: abandoned sequences in stream order, pruned once they fall
        #: out of the node ring's reach (so a mod-2^16 wrap never
        #: meets an old entry)
        self._given_up: dict[int, None] = {}
        self._declared: int | None = None

    # -- observable state ------------------------------------------------
    @property
    def holding(self) -> bool:
        """Whether a gap is open (frames held, admission deferred)."""
        return bool(self._missing or self._pending)

    @property
    def nacks_sent(self) -> int:
        """Sequences NACKed over the stream's life, re-NACKs included."""
        return self._nacks_total

    def held(self, sequence: int) -> bool:
        """Whether ``sequence``'s body is held behind an open gap."""
        return sequence in self._pending

    # -- frame entry points ----------------------------------------------
    def on_packet(
        self, body: bytes
    ) -> list[tuple[FrameVerdict, EncodedPacket | None]]:
        """Route one wire ``PACKET`` body through recovery."""
        if not self.fec:
            return [admit_packet(self.tracker, self._anchor, body)]
        try:
            packet = EncodedPacket.from_bytes(body)
        except PacketFormatError:
            # Unlike the plain path, do NOT resync yet: the corrupted
            # window's gap surfaces at the next good frame and parity
            # or a retransmit can still recover the original body.
            self.tracker.count_corrupt()
            return [(FrameVerdict.CORRUPT, None)]
        seq = packet.sequence
        if not self.holding:
            delta = self.tracker.delta(seq)
            if delta < 0:
                return [self._stale(seq, packet)]
            if delta == 0:
                return [self._admit(body)]
            # a gap opened: hold this frame instead of charging the gap
            self._note_ahead(seq, body)
            return self._after_hold_grew(packet)
        # holding: classify against the open gap
        if seq in self._missing:
            return self._fill(seq, body, _VIA_RETRANSMIT)
        if seq in self._pending:
            self.tracker.count_duplicate()
            return [(FrameVerdict.STALE, packet)]
        if self._behind_hold(seq):
            return [self._stale(seq, packet)]
        self._note_ahead(seq, body)
        return self._after_hold_grew(packet)

    def on_parity(
        self, body: bytes
    ) -> list[tuple[FrameVerdict, EncodedPacket | None]]:
        """Route one ``PARITY`` frame body through tier-1 recovery."""
        if not self.fec:
            return []  # fec-off stream: parity is inert
        self.tracker.meter.inc("ingest_parity_frames")
        try:
            base, count, parity = decode_parity_body(body)
        except PacketFormatError:
            return []  # damaged parity: tier 2 still covers the epoch
        covered = covered_sequences(base, count)
        # Parity also *reveals* a tail gap of its epoch: a covered
        # sequence that neither arrived nor is already wanted must have
        # been dropped with no later packet to expose it yet.
        for seq in covered:
            if (
                seq not in self._pending
                and seq not in self._missing
                and not self._behind_hold(seq)
            ):
                self._note_missing(seq)
        wanted = [seq for seq in covered if seq in self._missing]
        if not wanted:
            return []
        if len(wanted) == 1:
            events = self._try_parity_recover(wanted[0], covered, parity)
            if events is not None:
                return events
        # >= 2 losses in the epoch (or reconstruction failed): tier 2
        return self._nack(self._not_nacked(wanted))

    def bye(
        self, declared: int | None
    ) -> list[tuple[FrameVerdict, EncodedPacket | None]]:
        """Orderly stream end: reveal the tail gap, NACK what remains.

        Returns admission events; afterwards the caller should keep
        reading retransmits while :attr:`holding` (bounded by its own
        deadline) and finally call :meth:`give_up`.  A fec-off stream
        charges the tail immediately, exactly as before.
        """
        self._declared = declared
        if not self.fec:
            if declared is not None:
                self.tracker.close_stream(declared)
            return []
        if declared is not None:
            # reveal every declared-but-unseen tail sequence as missing
            final = declared % _SEQ_MOD
            while True:
                nxt = (
                    self.tracker.expected
                    if self._horizon is None
                    else (self._horizon + 1) % _SEQ_MOD
                )
                if sequence_delta(nxt, final) <= 0:
                    break
                self._note_missing(nxt)
        return self._nack(self._not_nacked(self._missing))

    # -- recovery internals ----------------------------------------------
    def give_up(self) -> list[tuple[FrameVerdict, EncodedPacket | None]]:
        """Abandon the open gap: drain held frames through the plain
        keyframe-resync path (which charges the missing windows), and
        remember the abandoned sequences so late retransmits classify
        as :attr:`FrameVerdict.LATE_RETRANSMIT`.  Idempotent."""
        for seq in sorted(self._missing, key=self._order):
            self._given_up[seq] = None
        self._missing.clear()
        self._via.clear()
        events = self._drain() if self._pending else []
        self._end_hold()
        if self._declared is not None:
            final = self._declared % _SEQ_MOD
            for i in range(self.tracker.delta(final)):
                self._given_up[(self.tracker.expected + i) % _SEQ_MOD] = None
            self.tracker.close_stream(self._declared)
        return events

    def _end_hold(self) -> None:
        """Back to flow state: the next gap opens a fresh hold, with
        its own NACK budget."""
        self._horizon = None
        self._joined = 0
        self._nacked.clear()
        self._nack_spent = 0

    def _order(self, seq: int) -> int:
        """Ascending stream order of ``seq`` (mod-2^16 safe)."""
        return sequence_delta(self.tracker.expected, seq)

    def _behind_hold(self, seq: int) -> bool:
        """Whether ``seq`` is behind everything recovery still wants."""
        return self.tracker.delta(seq) < 0

    def _stale(
        self, seq: int, packet: EncodedPacket
    ) -> tuple[FrameVerdict, EncodedPacket]:
        if seq in self._given_up:
            self.tracker.count_late_retransmit()
            return FrameVerdict.LATE_RETRANSMIT, packet
        self.tracker.count_duplicate()
        return FrameVerdict.STALE, packet

    def _admit(
        self, body: bytes
    ) -> tuple[FrameVerdict, EncodedPacket | None]:
        """Plain admission of one body + retention for parity math."""
        verdict, packet = admit_packet(self.tracker, self._anchor, body)
        if packet is not None and verdict in (
            FrameVerdict.ACCEPT,
            FrameVerdict.RESYNC_SKIP,
        ):
            self._bodies[packet.sequence] = body
            while len(self._bodies) > self._body_window:
                self._bodies.pop(next(iter(self._bodies)))
        while self._given_up:
            oldest = next(iter(self._given_up))
            if self.tracker.delta(oldest) >= -self._hold_cap:
                break
            del self._given_up[oldest]
        return verdict, packet

    def _note_missing(self, seq: int) -> None:
        """Mark an unseen sequence at/ahead of the horizon as missing."""
        if self._horizon is None:
            for i in range(self.tracker.delta(seq) + 1):  # expected..seq
                self._missing[(self.tracker.expected + i) % _SEQ_MOD] = (
                    self._joined
                )
            self._horizon = seq
            return
        rel = sequence_delta(self._horizon, seq)
        for i in range(1, rel + 1):
            self._missing[(self._horizon + i) % _SEQ_MOD] = self._joined
        if rel > 0:
            self._horizon = seq

    def _note_ahead(self, seq: int, body: bytes) -> None:
        """Hold an ahead-of-expected body; open/extend the gap."""
        self._note_missing(seq)
        self._missing.pop(seq, None)
        self._pending[seq] = body
        self._joined += 1

    def _after_hold_grew(
        self, packet: EncodedPacket
    ) -> list[tuple[FrameVerdict, EncodedPacket | None]]:
        """Frame-driven triggers after a new frame joined the hold."""
        # a new keyframe means a new epoch: a still-missing earlier
        # window will never see its parity frame again — NACK it now
        keyframe = packet.kind is PacketKind.KEYFRAME
        due = []
        for seq in sorted(self._missing, key=self._order):
            nacks = self._nacked.get(seq, 0)
            passed = self._joined - self._missing[seq]
            if (keyframe and not nacks) or (
                passed >= NACK_AFTER_FRAMES * (nacks + 1)
            ):
                due.append(seq)
        events = self._nack(due)
        if len(self._pending) >= self._hold_cap:
            events.extend(self.give_up())
        return events

    def _fill(
        self, seq: int, body: bytes, via: str
    ) -> list[tuple[FrameVerdict, EncodedPacket | None]]:
        """A wanted body arrived (retransmit, parity reconstruction, or
        a late-reordered original): close that part of the gap."""
        del self._missing[seq]
        self._pending[seq] = body
        self._via[seq] = via
        if self._missing:
            return []
        events = self._drain()
        self._end_hold()
        return events

    def _drain(self) -> list[tuple[FrameVerdict, EncodedPacket | None]]:
        """Admit every held body in stream order through the plain
        path.  With the gap fully filled this releases a loss-free run;
        after :meth:`give_up` the first drained frame exposes the
        remaining gap and :func:`admit_packet` charges it (PR 4)."""
        events: list[tuple[FrameVerdict, EncodedPacket | None]] = []
        for seq in sorted(self._pending, key=self._order):
            body = self._pending.pop(seq)
            verdict, packet = self._admit(body)
            via = self._via.pop(seq, None)
            if verdict is FrameVerdict.ACCEPT and via is not None:
                if via == _VIA_PARITY:
                    self.tracker.count_recovered_parity()
                else:
                    self.tracker.count_recovered_retransmit()
            events.append((verdict, packet))
        self._via.clear()
        return events

    def _try_parity_recover(
        self, missing: int, covered: list[int], parity: bytes
    ) -> list[tuple[FrameVerdict, EncodedPacket | None]] | None:
        """Tier 1: XOR-reconstruct the epoch's single missing body.

        Returns the released admission events, or ``None`` when the
        reconstruction is impossible (a peer body is unavailable) or
        fails CRC validation — the caller then falls through to NACK.
        """
        present: list[bytes] = []
        for seq in covered:
            if seq == missing:
                continue
            body = self._pending.get(seq)
            if body is None:
                body = self._bodies.get(seq)
            if body is None:
                return None  # peer body already pruned: cannot fold
            present.append(body)
        try:
            recovered = recover_body(parity, present)
            packet = EncodedPacket.from_bytes(recovered)
        except PacketFormatError:
            return None  # reconstruction invalid (e.g. damaged parity)
        if packet.sequence != missing:
            return None
        return self._fill(missing, recovered, _VIA_PARITY)

    def _not_nacked(self, sequences: Iterable[int]) -> list[int]:
        """``sequences`` not yet NACKed in this hold, in stream order."""
        return sorted(
            (seq for seq in sequences if seq not in self._nacked),
            key=self._order,
        )

    def _nack(
        self, sequences: list[int]
    ) -> list[tuple[FrameVerdict, EncodedPacket | None]]:
        """Tier 2: request retransmission of ``sequences``, bounded by
        the hold's budget; a blown budget abandons the gap."""
        if not sequences:
            return []
        if self._nack_spent + len(sequences) > self.nack_budget:
            return self.give_up()
        self._nack_spent += len(sequences)
        self._nacks_total += len(sequences)
        for seq in sequences:
            self._nacked[seq] = self._nacked.get(seq, 0) + 1
        self.tracker.meter.inc("ingest_nacks_sent", len(sequences))
        if self.on_nack is not None:
            self.on_nack(sequences)
        return []


def replay_survivors(
    config,
    codebook,
    delivered: list,
    dtype: type = np.float64,
    windows_sent: int | None = None,
    fec: bool = False,
    nack_budget: int = 8,
) -> tuple[list[tuple[int, np.ndarray]], LossAccounting]:
    """Offline stage-2 reference over a delivered frame sequence.

    Applies exactly the admission rules the gateway applies live (the
    same :class:`StreamRecovery` over the same :func:`admit_packet`,
    both times) and returns the accepted windows as ``(sequence,
    dequantized measurement column)`` pairs plus the accounting.

    ``delivered`` items are either raw ``PACKET`` bodies (``bytes``,
    the classic :attr:`LinkStats.delivered` view) or ``(kind, body)``
    pairs from :attr:`LinkStats.delivered_frames` — the latter is what
    carries ``PARITY`` frames into a ``fec=True`` replay, and the
    ``BYE`` at the position it arrived, where the replay calls
    :meth:`StreamRecovery.bye` (a log without one calls it after the
    last frame).  NACK retransmissions need no side channel here: a
    retransmitted copy appears in the recorded stream as an ordinary
    delivery, and the machine treats any arrival of a wanted sequence
    as a fill, before or after the ``BYE``.  The budget must match the
    live gateway's so both give up identically.
    """
    payload = PacketPayloadDecoder(config, codebook=codebook)
    tracker = SequenceTracker()
    recovery = StreamRecovery(
        tracker, payload, fec=fec, nack_budget=nack_budget
    )
    accepted: list[tuple[int, np.ndarray]] = []

    def _decode(events) -> None:
        for verdict, packet in events:
            if verdict is FrameVerdict.ACCEPT:
                y_q = payload.decode_payload(packet)
                accepted.append(
                    (
                        packet.sequence,
                        payload.quantizer.dequantize(y_q).astype(dtype),
                    )
                )

    bye_seen = False
    for item in delivered:
        if isinstance(item, (bytes, bytearray)):
            kind, body = FrameKind.PACKET, bytes(item)
        else:
            kind, body = FrameKind(item[0]), bytes(item[1])
        if kind is FrameKind.PARITY:
            _decode(recovery.on_parity(body))
        elif kind is FrameKind.BYE:
            _decode(recovery.bye(windows_sent))
            bye_seen = True
        else:
            _decode(recovery.on_packet(body))
    if not bye_seen:
        _decode(recovery.bye(windows_sent))
    _decode(recovery.give_up())
    return accepted, tracker.accounting


# ----------------------------------------------------------------------
# Impairment injection (the node→gateway radio, simulated)
# ----------------------------------------------------------------------


@dataclass
class LinkStats:
    """Ground truth of what one :class:`LossyLink` did to its frames."""

    frames_seen: int = 0
    frames_dropped: int = 0
    frames_reordered: int = 0
    frames_duplicated: int = 0
    frames_corrupted: int = 0
    frames_delivered: int = 0
    #: PARITY frames that entered the link / were dropped by it
    parity_seen: int = 0
    parity_dropped: int = 0
    #: sequence numbers of dropped frames (pre-impairment header read)
    dropped_sequences: list[int] = field(default_factory=list)
    #: the exact post-impairment PACKET bodies, in delivery order —
    #: the surviving packet set an offline replay consumes
    delivered: list[bytes] = field(default_factory=list)
    #: post-impairment ``(frame kind, body)`` pairs in delivery order,
    #: including PARITY frames and the BYE — the input of a
    #: ``fec=True`` :func:`replay_survivors`
    delivered_frames: list[tuple[int, bytes]] = field(default_factory=list)
    #: per-PACKET fate in sender order (``"delivered"``/``"dropped"``/
    #: ``"corrupted"``)
    fate_log: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class LossyChannel:
    """Configuration of a seeded lossy radio link.

    All rates are independent per-frame probabilities in ``[0, 1]``;
    only ``PACKET`` frames are impaired (``HELLO``/``BYE`` model the
    reliable control side of the link, and impairing them would test
    TCP, not the on-air packet path).

    Parameters
    ----------
    loss:
        Probability a frame is silently dropped.
    reorder:
        Probability a frame is held back and delivered after
        1..``reorder_window`` later frames (reordering within a
        window).
    duplicate:
        Probability a frame is delivered twice back to back.
    corrupt:
        Probability one random payload bit of the on-air packet bytes
        is flipped (always CRC-detectable: CRC-16 catches every
        single-bit error).
    reorder_window:
        Maximum displacement of a reordered frame, in frames.
    drop_sequences:
        Deterministically drop these sequence numbers (first pass of
        each) regardless of ``loss`` — for targeted tests such as
        "drop exactly the second keyframe".
    drop_parity_epochs:
        Deterministically drop the ``PARITY`` frame whose epoch base
        sequence is listed here (first pass of each) — for targeted
        tests such as "lose a keyframe *and* its parity".  ``PARITY``
        frames are otherwise subject to ``loss`` only: a bit-flipped
        parity is already modeled by the recovery layer rejecting it,
        and reordering it would test frame scheduling, not recovery.
    seed:
        Seed of the link's private RNG; same seed + same frame stream
        => same fates.
    """

    loss: float = 0.0
    reorder: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    reorder_window: int = 2
    drop_sequences: tuple[int, ...] = ()
    drop_parity_epochs: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("loss", "reorder", "duplicate", "corrupt"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {rate}"
                )
        if self.reorder_window < 1:
            raise ConfigurationError(
                f"reorder_window must be >= 1, got {self.reorder_window}"
            )

    @property
    def impairs(self) -> bool:
        """Whether this channel can damage anything at all."""
        return bool(
            self.loss or self.reorder or self.duplicate or self.corrupt
            or self.drop_sequences or self.drop_parity_epochs
        )

    def wrap(self, writer, meter: Meter = NULL_METER) -> "LossyLink":
        """A :class:`LossyLink` applying this channel to ``writer``;
        frame fates are mirrored to ``meter`` when one is given."""
        return LossyLink(writer, self, meter=meter)


class LossyLink:
    """Writer wrapper that damages ``PACKET`` frames in flight.

    Sits between a node client and any transport writer (the loopback
    stand-in or a TCP ``StreamWriter``): bytes written through it are
    reassembled into wire frames, ``PACKET`` frames roll the channel's
    dice, and everything else passes through in order (after flushing
    any held-back reordered frames, so control frames never overtake
    data they followed).
    """

    def __init__(
        self, writer, channel: LossyChannel, meter: Meter = NULL_METER
    ) -> None:
        self._writer = writer
        self.channel = channel
        self.stats = LinkStats()
        #: telemetry mirror of the frame-fate counters: every fate is
        #: published as ``link_frames{fate=...}`` alongside the
        #: :class:`LinkStats` ground-truth view
        self.meter = meter
        self._rng = np.random.default_rng(channel.seed)
        self._buffer = bytearray()
        #: reordered frames in flight: [frames_still_to_let_pass, frame]
        self._held: list[list] = []
        self._forced_drops = set(channel.drop_sequences)
        self._forced_parity_drops = set(channel.drop_parity_epochs)

    # -- writer interface ------------------------------------------------
    def write(self, data: bytes) -> None:
        self._buffer.extend(data)
        self._pump()

    async def drain(self) -> None:
        await self._writer.drain()

    def close(self) -> None:
        self._release_held()
        self._writer.close()

    async def wait_closed(self) -> None:
        await self._writer.wait_closed()

    # -- framing ---------------------------------------------------------
    def _pump(self) -> None:
        """Split buffered bytes into frames and route each one."""
        while True:
            if len(self._buffer) < _FRAME_PREFIX:
                return
            length = int.from_bytes(self._buffer[:_FRAME_PREFIX], "big")
            end = _FRAME_PREFIX + length
            if len(self._buffer) < end:
                return
            frame = bytes(self._buffer[:end])
            del self._buffer[:end]
            kind = frame[_FRAME_PREFIX] if length >= 1 else None
            if kind == int(FrameKind.PACKET):
                self._impair(frame)
            elif kind == int(FrameKind.PARITY):
                self._impair_parity(frame)
            else:
                # control frame: preserve order relative to the data
                # frames it followed, then pass through untouched
                self._release_held()
                if kind == int(FrameKind.BYE):
                    # where the stream ended, for the offline replay
                    self.stats.delivered_frames.append(
                        (kind, frame[_FRAME_PREFIX + 1 :])
                    )
                self._writer.write(frame)

    # -- impairment ------------------------------------------------------
    def _impair(self, frame: bytes) -> None:
        self.stats.frames_seen += 1
        self.meter.inc("link_frames", fate="seen")
        sequence = header_sequence(frame[_FRAME_PREFIX + 1 :])
        forced = sequence in self._forced_drops
        if forced:
            self._forced_drops.discard(sequence)
        if forced or self._rng.random() < self.channel.loss:
            self.stats.frames_dropped += 1
            self.stats.dropped_sequences.append(sequence)
            self.stats.fate_log.append("dropped")
            self.meter.inc("link_frames", fate="dropped")
            self._tick_held()
            return
        if self.channel.corrupt and self._rng.random() < self.channel.corrupt:
            frame = self._flip_one_bit(frame)
            self.stats.frames_corrupted += 1
            self.stats.fate_log.append("corrupted")
            self.meter.inc("link_frames", fate="corrupted")
        else:
            self.stats.fate_log.append("delivered")
        if self.channel.duplicate and self._rng.random() < self.channel.duplicate:
            self.stats.frames_duplicated += 1
            self.meter.inc("link_frames", fate="duplicated")
            self._deliver(frame)
        if self.channel.reorder and self._rng.random() < self.channel.reorder:
            delay = int(self._rng.integers(1, self.channel.reorder_window + 1))
            self.stats.frames_reordered += 1
            self.meter.inc("link_frames", fate="reordered")
            self._held.append([delay, frame])
            return
        self._deliver(frame)

    def _impair_parity(self, frame: bytes) -> None:
        """PARITY frames roll only the loss dice (plus forced drops):
        the redundancy itself rides the same radio, but corrupting or
        reordering it would test the parity *parser*, not recovery."""
        self.stats.parity_seen += 1
        self.meter.inc("link_frames", fate="parity_seen")
        body = frame[_FRAME_PREFIX + 1 :]
        base = int.from_bytes(body[0:2], "big") if len(body) >= 2 else -1
        forced = base in self._forced_parity_drops
        if forced:
            self._forced_parity_drops.discard(base)
        if forced or self._rng.random() < self.channel.loss:
            self.stats.parity_dropped += 1
            self.meter.inc("link_frames", fate="parity_dropped")
            self._tick_held()
            return
        self._deliver(frame)

    def _flip_one_bit(self, frame: bytes) -> bytes:
        """Flip one random bit of the on-air packet bytes (the frame
        body), leaving the length prefix and kind byte intact so the
        framing layer still delivers the frame."""
        body_start = _FRAME_PREFIX + 1
        offset = int(self._rng.integers(body_start, len(frame)))
        bit = int(self._rng.integers(0, 8))
        mutated = bytearray(frame)
        mutated[offset] ^= 1 << bit
        return bytes(mutated)

    def _emit(self, frame: bytes) -> None:
        """Put one frame on the wire and record its delivery.  Does
        NOT age the hold queue — released held frames must not re-age
        their peers."""
        kind = frame[_FRAME_PREFIX]
        body = frame[_FRAME_PREFIX + 1 :]
        self.stats.delivered_frames.append((kind, body))
        if kind == int(FrameKind.PACKET):
            # the bytes-only view stays PACKET-only so existing
            # (fec-off) replays keep consuming it unchanged
            self.stats.frames_delivered += 1
            self.stats.delivered.append(body)
            self.meter.inc("link_frames", fate="delivered")
        else:
            self.meter.inc("link_frames", fate="parity_delivered")
        self._writer.write(frame)

    def _deliver(self, frame: bytes) -> None:
        self._emit(frame)
        self._tick_held()

    def _tick_held(self) -> None:
        """One frame went past the hold queue: age every held frame
        and release the ones whose displacement is served."""
        due = []
        for entry in self._held:
            entry[0] -= 1
            if entry[0] <= 0:
                due.append(entry)
        for entry in due:
            self._held.remove(entry)
            self._emit(entry[1])

    def _release_held(self) -> None:
        """Flush all held frames (stream end or control frame)."""
        while self._held:
            _, frame = self._held.pop(0)
            self._emit(frame)


__all__ = [
    "FrameVerdict",
    "HOLD_CAP_EPOCHS",
    "LinkStats",
    "LossAccounting",
    "LossyChannel",
    "LossyLink",
    "NACK_AFTER_FRAMES",
    "ResyncAnchor",
    "SequenceTracker",
    "StreamRecovery",
    "admit_packet",
    "header_sequence",
    "replay_survivors",
    "sequence_delta",
]
