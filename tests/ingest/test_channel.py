"""Unit tests of the lossy-channel layer (repro.ingest.channel).

The impairment injector (:class:`LossyLink`) and the receiver-side
gap-recovery state machine (:class:`SequenceTracker` /
:func:`admit_packet`) are tested in isolation here; their end-to-end
composition through a live gateway is covered in ``test_gateway.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.coding.fec import encode_parity_body
from repro.core.decoder import PacketPayloadDecoder
from repro.core.packets import EncodedPacket, PacketKind
from repro.errors import ConfigurationError, PacketFormatError
from repro.ingest import (
    HOLD_CAP_EPOCHS,
    NACK_AFTER_FRAMES,
    FrameKind,
    FrameVerdict,
    LossyChannel,
    LossyLink,
    ResyncAnchor,
    SequenceTracker,
    StreamRecovery,
    admit_packet,
    encode_frame,
    encoded_packets,
    replay_survivors,
)
from repro.ingest.channel import sequence_delta


class _SinkWriter:
    """Collects written bytes; reassembles frames for assertions."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data.extend(data)

    def frames(self) -> list[tuple[int, bytes]]:
        out, offset = [], 0
        while offset < len(self.data):
            length = int.from_bytes(self.data[offset : offset + 4], "big")
            body = bytes(self.data[offset + 4 : offset + 4 + length])
            out.append((body[0], body[1:]))
            offset += 4 + length
        return out

    def close(self) -> None:
        pass


def _damaged(accounting) -> int:
    """Windows a stream did not decode (lost + resynced)."""
    return accounting.windows_lost + accounting.windows_resynced


def _loss_events(stats) -> int:
    """Events that can each damage up to ``keyframe_interval`` windows:
    outright drops plus CRC-corrupting flips."""
    return stats.frames_dropped + stats.frames_corrupted


def _burst_events(stats) -> int:
    """Loss events with runs of adjacent losses collapsed into one."""
    lost = [fate in ("dropped", "corrupted") for fate in stats.fate_log]
    return sum(now and not before for before, now in zip([False] + lost, lost))


def _packet_frames(system, record, count):
    packets = encoded_packets(system, record, max_packets=count)
    return packets, [
        encode_frame(FrameKind.PACKET, p.to_bytes()) for p in packets
    ]


def _parity_frame(epoch):
    """The PARITY frame a fec-enabled node emits for one epoch."""
    return encode_frame(
        FrameKind.PARITY,
        encode_parity_body(epoch[0].sequence, [p.to_bytes() for p in epoch]),
    )


def _frames_with_parity(packets, interval):
    """The fec-enabled wire sequence: each epoch's packets + parity."""
    frames = []
    for start in range(0, len(packets), interval):
        epoch = packets[start : start + interval]
        frames.extend(
            encode_frame(FrameKind.PACKET, p.to_bytes()) for p in epoch
        )
        frames.append(_parity_frame(epoch))
    return frames


@pytest.fixture(scope="module")
def stream(small_config, database):
    """One calibrated system + record shared by the link tests."""
    from repro.core import EcgMonitorSystem

    config = small_config.replace(keyframe_interval=4)
    record = database.load("100")
    system = EcgMonitorSystem(config)
    system.calibrate(record)
    return system, record


@pytest.fixture(scope="module")
def paper_stream(paper_config):
    """The paper's operating point (``keyframe_interval`` = 16): three
    keyframe epochs and the keyframe after them, as encoded packets and
    PACKET frames."""
    from repro.core import EcgMonitorSystem
    from repro.ecg import SyntheticMitBih

    windows = 3 * paper_config.keyframe_interval + 1
    record = SyntheticMitBih(
        duration_s=windows * paper_config.packet_seconds + 4.0, seed=2011
    ).load("100")
    system = EcgMonitorSystem(paper_config)
    system.calibrate(record)
    return (system, *_packet_frames(system, record, windows))


class TestSequenceDelta:
    def test_in_order(self):
        assert sequence_delta(5, 5) == 0
        assert sequence_delta(5, 6) == 1
        assert sequence_delta(5, 4) == -1

    def test_wraparound(self):
        assert sequence_delta(65535, 0) == 1
        assert sequence_delta(0, 65535) == -1
        assert sequence_delta(65530, 4) == 10


class TestSequenceTracker:
    def test_gap_then_close_stream(self):
        tracker = SequenceTracker()
        assert tracker.delta(0) == 0
        tracker.advance(0)
        assert tracker.delta(3) == 2  # windows 1-2 missing
        tracker.accounting.windows_lost += tracker.delta(3)
        tracker.advance(3)
        tracker.close_stream(6)  # windows 4-5 never sent a reveal
        assert tracker.accounting.windows_lost == 4

    def test_close_stream_without_gap_is_noop(self):
        tracker = SequenceTracker()
        tracker.advance(0)
        tracker.advance(1)
        tracker.close_stream(2)
        assert tracker.accounting.windows_lost == 0


class TestAdmitPacket:
    def _fresh(self, system):
        payload = PacketPayloadDecoder(
            system.config, codebook=system.encoder.codebook
        )
        return SequenceTracker(), ResyncAnchor(), payload

    def test_in_order_stream_all_accepted(self, stream):
        system, record = stream
        packets, _ = _packet_frames(system, record, 5)
        tracker, anchor, payload = self._fresh(system)
        for packet in packets:
            verdict, parsed = admit_packet(
                tracker, anchor, packet.to_bytes()
            )
            assert verdict is FrameVerdict.ACCEPT
            payload.decode_payload(parsed)
        assert _damaged(tracker.accounting) == 0

    def test_corrupt_frame_triggers_resync(self, stream):
        system, record = stream
        packets, _ = _packet_frames(system, record, 5)
        tracker, anchor, payload = self._fresh(system)
        verdict, parsed = admit_packet(
            tracker, anchor, packets[0].to_bytes()
        )
        payload.decode_payload(parsed)
        wire = bytearray(packets[1].to_bytes())
        wire[-1] ^= 0x01
        verdict, parsed = admit_packet(tracker, anchor, bytes(wire))
        assert verdict is FrameVerdict.CORRUPT
        assert parsed is None
        assert tracker.accounting.frames_corrupt == 1
        assert not anchor.anchored
        # next good diff reveals the gap and is itself unusable
        verdict, _ = admit_packet(tracker, anchor, packets[2].to_bytes())
        assert verdict is FrameVerdict.RESYNC_SKIP
        assert tracker.accounting.windows_lost == 1
        assert tracker.accounting.windows_resynced == 1
        # the keyframe at sequence 4 re-arms the chain
        verdict, _ = admit_packet(tracker, anchor, packets[3].to_bytes())
        assert verdict is FrameVerdict.RESYNC_SKIP
        verdict, parsed = admit_packet(
            tracker, anchor, packets[4].to_bytes()
        )
        assert verdict is FrameVerdict.ACCEPT
        assert parsed.kind is PacketKind.KEYFRAME
        payload.decode_payload(parsed)
        assert anchor.anchored

    def test_duplicate_is_stale(self, stream):
        system, record = stream
        packets, _ = _packet_frames(system, record, 2)
        tracker, anchor, payload = self._fresh(system)
        for packet in packets:
            _, parsed = admit_packet(tracker, anchor, packet.to_bytes())
            payload.decode_payload(parsed)
        verdict, _ = admit_packet(
            tracker, anchor, packets[0].to_bytes()
        )
        assert verdict is FrameVerdict.STALE
        assert tracker.accounting.frames_duplicate == 1

    def test_gap_charge_leaves_the_codec_reference_alone(self, stream):
        """Admission runs ahead of decode: charging a gap must not
        reset the reference an already-accepted packet still needs."""
        system, record = stream
        packets, _ = _packet_frames(system, record, 4)
        tracker, anchor, payload = self._fresh(system)
        accepted = []
        for packet in (packets[0], packets[1], packets[3]):
            verdict, parsed = admit_packet(
                tracker, anchor, packet.to_bytes()
            )
            if verdict is FrameVerdict.ACCEPT:
                accepted.append(parsed)
        assert [p.sequence for p in accepted] == [0, 1]
        assert not anchor.anchored
        for parsed in accepted:  # decoded only after the gap charge
            payload.decode_payload(parsed)

    def test_diff_before_any_keyframe_is_skipped(self, stream):
        """Joining mid-stream (first keyframe lost) must skip diffs,
        not crash."""
        system, record = stream
        packets, _ = _packet_frames(system, record, 3)
        tracker, anchor, _ = self._fresh(system)
        verdict, _ = admit_packet(tracker, anchor, packets[1].to_bytes())
        assert verdict is FrameVerdict.RESYNC_SKIP
        assert tracker.accounting.windows_lost == 1  # the keyframe
        assert tracker.accounting.windows_resynced == 1


class TestStreamRecovery:
    """The two-tier (parity + NACK) recovery state machine, driven
    frame by frame with deterministic losses."""

    def _fresh(self, system, **kwargs):
        payload = PacketPayloadDecoder(
            system.config, codebook=system.encoder.codebook
        )
        tracker = SequenceTracker()
        nacks: list[list[int]] = []
        recovery = StreamRecovery(
            tracker, payload, fec=True, on_nack=nacks.append, **kwargs
        )
        return tracker, payload, recovery, nacks

    @staticmethod
    def _pump(payload, events, decoded=None):
        """Decode ACCEPTs exactly as the gateway would; log verdicts
        (and keep the stage-2 output by sequence in ``decoded``)."""
        log = []
        for verdict, packet in events:
            if verdict is FrameVerdict.ACCEPT:
                y_q = payload.decode_payload(packet)
                if decoded is not None:
                    decoded[packet.sequence] = y_q
            log.append(
                (verdict, None if packet is None else packet.sequence)
            )
        return log

    def test_fec_off_is_the_plain_admission_path(self, stream):
        system, record = stream
        packets, _ = _packet_frames(system, record, 5)
        payload = PacketPayloadDecoder(
            system.config, codebook=system.encoder.codebook
        )
        tracker = SequenceTracker()
        recovery = StreamRecovery(tracker, payload, fec=False)
        for packet in packets:
            events = recovery.on_packet(packet.to_bytes())
            assert self._pump(payload, events) == [
                (FrameVerdict.ACCEPT, packet.sequence)
            ]
        # parity is inert on a fec-off stream
        assert recovery.on_parity(b"\x00\x00\x00\x01") == []
        assert _damaged(tracker.accounting) == 0
        assert not recovery.holding

    def test_parity_recovers_single_loss_without_nack(self, stream):
        system, record = stream
        packets, _ = _packet_frames(system, record, 4)
        _, payload, recovery, nacks = self._fresh(system)
        log = []
        for index in (0, 1, 3):  # sequence 2 lost on air
            log += self._pump(
                payload, recovery.on_packet(packets[index].to_bytes())
            )
        assert recovery.holding  # 3 held behind the open gap, uncharged
        assert log == [
            (FrameVerdict.ACCEPT, 0),
            (FrameVerdict.ACCEPT, 1),
        ]
        log = self._pump(
            payload,
            recovery.on_parity(
                encode_parity_body(0, [p.to_bytes() for p in packets])
            ),
        )
        assert log == [
            (FrameVerdict.ACCEPT, 2),
            (FrameVerdict.ACCEPT, 3),
        ]
        accounting = recovery.tracker.accounting
        assert accounting.windows_recovered_parity == 1
        assert accounting.windows_lost == 0
        assert nacks == []  # tier 1 needed zero round trips
        assert not recovery.holding

    def test_two_losses_in_one_epoch_nack_then_fill(self, stream):
        system, record = stream
        packets, _ = _packet_frames(system, record, 4)
        _, payload, recovery, nacks = self._fresh(system)
        for index in (0, 3):  # sequences 1 and 2 lost
            self._pump(payload, recovery.on_packet(packets[index].to_bytes()))
        assert self._pump(
            payload,
            recovery.on_parity(
                encode_parity_body(0, [p.to_bytes() for p in packets])
            ),
        ) == []
        assert nacks == [[1, 2]]  # parity cannot cover a double loss
        assert recovery.nacks_sent == 2
        # the node's retransmissions fill the gap
        assert self._pump(
            payload, recovery.on_packet(packets[1].to_bytes())
        ) == []
        log = self._pump(payload, recovery.on_packet(packets[2].to_bytes()))
        assert log == [
            (FrameVerdict.ACCEPT, 1),
            (FrameVerdict.ACCEPT, 2),
            (FrameVerdict.ACCEPT, 3),
        ]
        accounting = recovery.tracker.accounting
        assert accounting.windows_recovered_retransmit == 2
        assert accounting.windows_recovered == 2
        assert accounting.windows_lost == 0

    def test_nack_budget_exhaustion_falls_back_to_resync(self, stream):
        system, record = stream
        packets, _ = _packet_frames(system, record, 5)
        _, payload, recovery, nacks = self._fresh(system, nack_budget=1)
        for index in (0, 3):  # two losses, budget allows one NACK
            self._pump(payload, recovery.on_packet(packets[index].to_bytes()))
        log = self._pump(
            payload,
            recovery.on_parity(
                encode_parity_body(0, [p.to_bytes() for p in packets[:4]])
            ),
        )
        # blown budget: the held run drains through keyframe resync
        assert log == [(FrameVerdict.RESYNC_SKIP, 3)]
        assert nacks == []
        accounting = recovery.tracker.accounting
        assert accounting.windows_lost == 2
        assert accounting.windows_resynced == 1
        assert accounting.windows_recovered == 0
        assert not recovery.holding
        # the next keyframe re-arms the stream as in PR 4
        log = self._pump(payload, recovery.on_packet(packets[4].to_bytes()))
        assert log == [(FrameVerdict.ACCEPT, 4)]

    def test_parity_reveals_and_recovers_tail_loss(self, stream):
        """The epoch's last packet is lost with nothing after it to
        expose the gap — the parity frame itself reveals it."""
        system, record = stream
        packets, _ = _packet_frames(system, record, 4)
        _, payload, recovery, nacks = self._fresh(system)
        for index in (0, 1, 2):
            self._pump(payload, recovery.on_packet(packets[index].to_bytes()))
        assert not recovery.holding  # the gap is not even visible yet
        log = self._pump(
            payload,
            recovery.on_parity(
                encode_parity_body(0, [p.to_bytes() for p in packets])
            ),
        )
        assert log == [(FrameVerdict.ACCEPT, 3)]
        assert recovery.tracker.accounting.windows_recovered_parity == 1
        assert nacks == []

    def test_lost_parity_nacks_at_next_keyframe(self, stream):
        """Packet 3 and its epoch's parity both lost: the next
        keyframe's arrival is the frame-driven NACK trigger."""
        system, record = stream
        packets, _ = _packet_frames(system, record, 5)
        _, payload, recovery, nacks = self._fresh(system)
        for index in (0, 1, 2):
            self._pump(payload, recovery.on_packet(packets[index].to_bytes()))
        assert self._pump(
            payload, recovery.on_packet(packets[4].to_bytes())
        ) == []
        assert nacks == [[3]]
        log = self._pump(payload, recovery.on_packet(packets[3].to_bytes()))
        assert log == [
            (FrameVerdict.ACCEPT, 3),
            (FrameVerdict.ACCEPT, 4),
        ]
        accounting = recovery.tracker.accounting
        assert accounting.windows_recovered_retransmit == 1
        assert accounting.windows_lost == 0

    def test_corrupt_frame_recovered_by_parity_not_resynced(self, stream):
        """With fec on, a CRC-failed frame defers the resync: the gap
        it leaves is recoverable, and here parity recovers it."""
        system, record = stream
        packets, _ = _packet_frames(system, record, 4)
        _, payload, recovery, _ = self._fresh(system)
        self._pump(payload, recovery.on_packet(packets[0].to_bytes()))
        wire = bytearray(packets[1].to_bytes())
        wire[-1] ^= 0x01
        assert self._pump(payload, recovery.on_packet(bytes(wire))) == [
            (FrameVerdict.CORRUPT, None)
        ]
        for index in (2, 3):
            self._pump(payload, recovery.on_packet(packets[index].to_bytes()))
        log = self._pump(
            payload,
            recovery.on_parity(
                encode_parity_body(0, [p.to_bytes() for p in packets])
            ),
        )
        assert log == [
            (FrameVerdict.ACCEPT, 1),
            (FrameVerdict.ACCEPT, 2),
            (FrameVerdict.ACCEPT, 3),
        ]
        accounting = recovery.tracker.accounting
        assert accounting.frames_corrupt == 1
        assert accounting.windows_recovered_parity == 1
        assert accounting.windows_lost == 0

    def test_hold_cap_overflow_gives_up(self, stream):
        """A gap that never fills is NACKed once ``NACK_AFTER_FRAMES``
        frames are held ahead of it and again after each further
        ``NACK_AFTER_FRAMES``; with a budget the hold cannot spend, the
        hold cap is the backstop that gives it up."""
        system, record = stream
        total = HOLD_CAP_EPOCHS * system.config.keyframe_interval + 2
        packets, _ = _packet_frames(system, record, total)
        _, payload, recovery, nacks = self._fresh(system, nack_budget=total)
        self._pump(payload, recovery.on_packet(packets[0].to_bytes()))
        log, nacked_at = [], []
        for packet in packets[2:]:  # sequence 1 lost, no parity arrives
            before = len(nacks)
            log += self._pump(payload, recovery.on_packet(packet.to_bytes()))
            if len(nacks) > before:
                nacked_at.append(packet.sequence)
        assert not recovery.holding  # the cap overflowed and drained
        assert nacked_at == list(
            range(1 + NACK_AFTER_FRAMES, total - 1, NACK_AFTER_FRAMES)
        )
        assert nacks == [[1]] * len(nacked_at)
        assert recovery.nacks_sent == len(nacked_at)
        accounting = recovery.tracker.accounting
        accepted = sum(
            1 for verdict, _ in log if verdict is FrameVerdict.ACCEPT
        )
        assert accounting.windows_lost == 1
        assert (
            accepted
            + 1  # sequence 0, admitted before the gap
            + accounting.windows_lost
            + accounting.windows_resynced
            == total
        )

    def test_wraparound_retransmit_fill_is_not_stale(self, stream):
        """Satellite: a gap at 65534 filled after the counter wrapped
        to 2 must classify as a retransmit fill, not a stale frame."""
        system, record = stream
        packets, _ = _packet_frames(system, record, 1)
        keyframe = packets[0]

        def at(sequence):
            return replace(keyframe, sequence=sequence).to_bytes()

        tracker, payload, recovery, nacks = self._fresh(system)
        tracker.expected = 65533
        log = self._pump(payload, recovery.on_packet(at(65533)))
        assert log == [(FrameVerdict.ACCEPT, 65533)]
        # 65534 lost; the stream wraps through 65535 -> 0 -> 1 -> 2
        for sequence in (65535, 0, 1, 2):
            assert self._pump(
                payload, recovery.on_packet(at(sequence))
            ) == []
        assert nacks == [[65534]]
        log = self._pump(payload, recovery.on_packet(at(65534)))
        assert log == [
            (FrameVerdict.ACCEPT, 65534),
            (FrameVerdict.ACCEPT, 65535),
            (FrameVerdict.ACCEPT, 0),
            (FrameVerdict.ACCEPT, 1),
            (FrameVerdict.ACCEPT, 2),
        ]
        accounting = tracker.accounting
        assert accounting.windows_recovered_retransmit == 1
        assert accounting.frames_duplicate == 0
        assert accounting.windows_lost == 0
        assert tracker.expected == 3

    def test_given_up_sequence_expires_before_the_wrap(self, stream):
        """A given-up sequence is forgotten once the stream is more than
        the node ring's reach past it.  It used to be kept for the
        stream's life, so one full 16-bit wrap later a plain duplicate
        of the same number classified as a late retransmit."""
        system, record = stream
        packets, _ = _packet_frames(system, record, 1)
        keyframe = packets[0]

        def at(sequence):
            return replace(keyframe, sequence=sequence % 65536).to_bytes()

        tracker, payload, recovery, _ = self._fresh(system, nack_budget=0)
        recovery.on_packet(at(0))
        # 1 lost: the keyframe at 2 NACKs it, the empty budget gives up
        assert self._pump(payload, recovery.on_packet(at(2))) == [
            (FrameVerdict.ACCEPT, 2)
        ]
        assert self._pump(payload, recovery.on_packet(at(1))) == [
            (FrameVerdict.LATE_RETRANSMIT, 1)
        ]
        for sequence in range(3, 65536 + 2):  # through the wrap to 1
            recovery.on_packet(at(sequence))
        assert tracker.expected == 2
        assert self._pump(payload, recovery.on_packet(at(1))) == [
            (FrameVerdict.STALE, 1)
        ]
        accounting = tracker.accounting
        assert accounting.frames_late_retransmit == 1
        assert accounting.frames_duplicate == 1
        assert accounting.windows_lost == 1

    def test_budget_refills_per_hold_on_a_long_stream(self, stream):
        """Regression: the NACK budget was spent once for the stream's
        life.  Two difference windows lost in every epoch (parity cannot
        cover two) cost two NACKs each, so the 8-NACK budget gave up in
        the fifth such epoch and every later one.  Per hold, every
        epoch recovers, and ``nacks_sent`` still counts every NACK."""
        system, record = stream
        interval = system.config.keyframe_interval
        epochs = 5
        packets, _ = _packet_frames(system, record, epochs * interval)
        assert len(packets) == epochs * interval
        _, payload, recovery, nacks = self._fresh(system)
        decoded = {}
        for start in range(0, len(packets), interval):
            epoch = packets[start : start + interval]
            for packet in (epoch[0], *epoch[3:]):  # epoch[1:3] lost
                self._pump(
                    payload, recovery.on_packet(packet.to_bytes()), decoded
                )
            # the node folds the epoch's difference packets only
            parity = encode_parity_body(
                epoch[1].sequence, [p.to_bytes() for p in epoch[1:]]
            )
            self._pump(payload, recovery.on_parity(parity), decoded)
            assert nacks[-1] == [epoch[1].sequence, epoch[2].sequence]
            for sequence in nacks[-1]:  # the node answers from its ring
                self._pump(
                    payload,
                    recovery.on_packet(packets[sequence].to_bytes()),
                    decoded,
                )
        assert sorted(decoded) == list(range(len(packets)))
        accounting = recovery.tracker.accounting
        assert _damaged(accounting) == 0
        assert accounting.windows_recovered_retransmit == 2 * epochs
        assert recovery.nacks_sent == 2 * epochs
        assert not recovery.holding

    def test_lost_retransmit_is_nacked_again(self, paper_stream):
        """Two losses in one epoch (18, 19), then 19's retransmit is
        lost and 23 goes missing too, so the epoch's parity could not
        rebuild 19 either.  After ``NACK_AFTER_FRAMES`` more frames 19
        is NACKed again together with 23, and both fill."""
        system, packets, _ = paper_stream
        _, payload, recovery, nacks = self._fresh(system)
        decoded = {}

        def feed(*sequences):
            for sequence in sequences:
                self._pump(
                    payload,
                    recovery.on_packet(packets[sequence].to_bytes()),
                    decoded,
                )

        feed(*range(18), 20, 21, 22)
        assert nacks == [[18, 19]]
        feed(18)  # 19's retransmit is lost on the air
        feed(24, 25, 26)  # 23 lost
        assert nacks == [[18, 19], [19, 23]]
        feed(19, 23)
        assert sorted(decoded) == list(range(27))
        accounting = recovery.tracker.accounting
        assert _damaged(accounting) == 0
        assert accounting.windows_recovered_retransmit == 3
        assert not recovery.holding

    def test_unfilled_gap_spends_the_budget_before_the_cap(self, paper_stream):
        """A gap that is never filled gives up once re-NACKs spend the
        hold's budget (8 NACKs, one per ``NACK_AFTER_FRAMES`` frames),
        well inside the 64-frame hold cap."""
        system, packets, _ = paper_stream
        budget = 8
        _, payload, recovery, nacks = self._fresh(system, nack_budget=budget)
        self._pump(payload, recovery.on_packet(packets[0].to_bytes()))
        given_up_at = None
        for packet in packets[2:]:  # sequence 1 never arrives
            self._pump(payload, recovery.on_packet(packet.to_bytes()))
            if not recovery.holding:
                given_up_at = packet.sequence
                break
        assert nacks == [[1]] * budget
        # the NACK after the budget's last one is the give-up
        assert given_up_at == 1 + NACK_AFTER_FRAMES * (budget + 1)
        assert given_up_at < HOLD_CAP_EPOCHS * system.config.keyframe_interval
        accounting = recovery.tracker.accounting
        assert accounting.windows_lost == 1
        # diffs 2-15 wait out the chain to the keyframe at 16
        assert accounting.windows_resynced == system.config.keyframe_interval - 2

    def test_late_retransmit_after_give_up(self, stream):
        """Satellite regression: a retransmit arriving after recovery
        resynced past its window is counted, not mistaken for a
        duplicate — and conservation still holds."""
        system, record = stream
        packets, frames = _packet_frames(system, record, 5)
        sink = _SinkWriter()
        link = LossyChannel(drop_sequences=(1,), seed=0).wrap(sink)
        for frame in frames:
            link.write(frame)
        _, payload, recovery, _ = self._fresh(system, nack_budget=0)
        log = []
        for _, body in link.stats.delivered_frames:
            log += self._pump(payload, recovery.on_packet(body))
        log += self._pump(payload, recovery.give_up())
        assert not recovery.holding
        # the dropped frame is redelivered long after the give-up
        late = self._pump(payload, recovery.on_packet(packets[1].to_bytes()))
        assert late == [(FrameVerdict.LATE_RETRANSMIT, 1)]
        accounting = recovery.tracker.accounting
        assert accounting.frames_late_retransmit == 1
        assert accounting.frames_duplicate == 0
        accepted = sum(
            1 for verdict, _ in log if verdict is FrameVerdict.ACCEPT
        )
        assert (
            accepted
            + accounting.windows_lost
            + accounting.windows_resynced
            == len(packets)
        )

    def _clean_reference(self, system, packets):
        """Stage-2 output of the undamaged stream, by sequence."""
        payload = PacketPayloadDecoder(
            system.config, codebook=system.encoder.codebook
        )
        return [payload.decode_payload(packet) for packet in packets]

    def test_give_up_behind_accepted_packets_keeps_the_stream(self, stream):
        """Regression: a give-up drains the whole held run before the
        caller decodes any of it.  Sequence 1 (a retransmit-filled
        difference packet, accepted) sat ahead of the abandoned gap at
        2; charging that gap used to reset the codec under it, and
        decoding it then raised "difference packet received before any
        keyframe" — ending the link and every window after it."""
        system, record = stream
        packets, _ = _packet_frames(system, record, 6)
        reference = self._clean_reference(system, packets)
        _, payload, recovery, _ = self._fresh(system)
        decoded = {}

        def pump(events):
            return self._pump(payload, events, decoded)

        # 1 and 2 lost; 3 opens the hold, the retransmit of 1 fills
        # half the gap, the retransmit of 2 never arrives
        log = []
        for index in (0, 3, 1, 4, 5):
            log += pump(recovery.on_packet(packets[index].to_bytes()))
        assert log == [(FrameVerdict.ACCEPT, 0)]
        log = pump(recovery.bye(len(packets))) + pump(recovery.give_up())
        assert log == [
            (FrameVerdict.ACCEPT, 1),
            (FrameVerdict.RESYNC_SKIP, 3),
            (FrameVerdict.ACCEPT, 4),
            (FrameVerdict.ACCEPT, 5),
        ]
        accounting = recovery.tracker.accounting
        assert accounting.windows_lost == 1
        assert accounting.windows_resynced == 1
        assert len(decoded) + _damaged(accounting) == len(packets)
        for sequence, y_q in decoded.items():
            np.testing.assert_array_equal(y_q, reference[sequence])

    def test_give_up_ending_on_a_gap_stays_resynced(self, stream):
        """The same drain, ending on a fresh gap: the run's last
        keyframe (16) is admitted *before* the gap at 17 is charged but
        decoded *after* it.  Decoding it must not re-anchor the
        stream — the next difference packet (19) would be accepted and
        applied to the wrong reference, silently."""
        system, record = stream
        interval = system.config.keyframe_interval
        total = HOLD_CAP_EPOCHS * interval + 4
        packets, _ = _packet_frames(system, record, total)
        reference = self._clean_reference(system, packets)
        _, payload, recovery, _ = self._fresh(system)
        decoded = {}
        log = []
        # 1 and 17 lost, no parity, no retransmit: 18 fills the hold cap
        for index in [0, *range(2, 17), 18, 19]:
            log += self._pump(
                payload,
                recovery.on_packet(packets[index].to_bytes()),
                decoded,
            )
        assert not recovery.holding
        assert log[-3:] == [
            (FrameVerdict.ACCEPT, 16),
            (FrameVerdict.RESYNC_SKIP, 18),
            (FrameVerdict.RESYNC_SKIP, 19),
        ]
        accounting = recovery.tracker.accounting
        assert accounting.windows_lost == 2
        assert len(decoded) + _damaged(accounting) == total
        for sequence, y_q in decoded.items():
            np.testing.assert_array_equal(y_q, reference[sequence])


class TestLossyLink:
    def test_passthrough_when_channel_is_clean(self, stream):
        system, record = stream
        _, frames = _packet_frames(system, record, 4)
        sink = _SinkWriter()
        link = LossyChannel(seed=1).wrap(sink)
        assert not LossyChannel(seed=1).impairs
        for frame in frames:
            link.write(frame)
        assert bytes(sink.data) == b"".join(frames)
        assert link.stats.frames_delivered == 4
        assert _loss_events(link.stats) == 0

    def test_partial_writes_reassemble_frames(self, stream):
        """Byte-at-a-time writes must still split on frame boundaries
        (TCP gives no write-boundary guarantees)."""
        system, record = stream
        _, frames = _packet_frames(system, record, 2)
        sink = _SinkWriter()
        link = LossyChannel(seed=1).wrap(sink)
        blob = b"".join(frames)
        for index in range(len(blob)):
            link.write(blob[index : index + 1])
        assert bytes(sink.data) == blob

    def test_forced_drop_sequences(self, stream):
        system, record = stream
        packets, frames = _packet_frames(system, record, 5)
        sink = _SinkWriter()
        link = LossyChannel(drop_sequences=(1, 3), seed=0).wrap(sink)
        for frame in frames:
            link.write(frame)
        assert link.stats.frames_dropped == 2
        assert link.stats.dropped_sequences == [1, 3]
        delivered = [
            EncodedPacket.from_bytes(body).sequence
            for body in link.stats.delivered
        ]
        assert delivered == [0, 2, 4]

    def test_duplicate_rate_one_doubles_every_frame(self, stream):
        system, record = stream
        _, frames = _packet_frames(system, record, 3)
        sink = _SinkWriter()
        link = LossyChannel(duplicate=1.0, seed=0).wrap(sink)
        for frame in frames:
            link.write(frame)
        assert link.stats.frames_duplicated == 3
        assert link.stats.frames_delivered == 6
        sequences = [
            EncodedPacket.from_bytes(body).sequence
            for body in link.stats.delivered
        ]
        assert sequences == [0, 0, 1, 1, 2, 2]

    def test_corrupt_rate_one_flips_exactly_one_bit(self, stream):
        system, record = stream
        packets, frames = _packet_frames(system, record, 2)
        sink = _SinkWriter()
        link = LossyChannel(corrupt=1.0, seed=3).wrap(sink)
        for frame in frames:
            link.write(frame)
        assert link.stats.frames_corrupted == 2
        for original, body in zip(packets, link.stats.delivered):
            clean = original.to_bytes()
            assert len(body) == len(clean)
            diff_bits = sum(
                bin(a ^ b).count("1") for a, b in zip(clean, body)
            )
            assert diff_bits == 1
            with pytest.raises(PacketFormatError):
                EncodedPacket.from_bytes(body)

    def test_reorder_holds_within_window_and_flushes_on_control(
        self, stream
    ):
        """A held frame is passed by later frames and lands out of
        order; nothing is lost, and control frames flush the holds so
        BYE never overtakes data."""
        system, record = stream
        _, frames = _packet_frames(system, record, 8)
        displaced = None
        for seed in range(32):
            sink = _SinkWriter()
            link = LossyChannel(
                reorder=0.5, reorder_window=2, seed=seed
            ).wrap(sink)
            for frame in frames:
                link.write(frame)
            link.write(encode_frame(FrameKind.BYE))
            kinds = [kind for kind, _ in sink.frames()]
            # every PACKET delivered exactly once, BYE always last
            assert kinds.count(int(FrameKind.PACKET)) == 8
            assert kinds[-1] == int(FrameKind.BYE)
            sequences = [
                EncodedPacket.from_bytes(body).sequence
                for kind, body in sink.frames()
                if kind == int(FrameKind.PACKET)
            ]
            assert sorted(sequences) == list(range(8))
            if sequences != list(range(8)):
                displaced = (seed, sequences, link.stats.frames_reordered)
                break
        assert displaced is not None, "no seed in 0..31 ever reordered"
        assert displaced[2] >= 1

    def test_same_seed_same_fates(self, stream):
        system, record = stream
        _, frames = _packet_frames(system, record, 12)
        outcomes = []
        for _ in range(2):
            sink = _SinkWriter()
            link = LossyChannel(
                loss=0.3, duplicate=0.2, corrupt=0.2, reorder=0.2, seed=42
            ).wrap(sink)
            for frame in frames:
                link.write(frame)
            link.write(encode_frame(FrameKind.BYE))
            outcomes.append((bytes(sink.data), link.stats.frames_dropped))
        assert outcomes[0] == outcomes[1]

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            LossyChannel(loss=1.5)
        with pytest.raises(ConfigurationError):
            LossyChannel(corrupt=-0.1)
        with pytest.raises(ConfigurationError):
            LossyChannel(reorder_window=0)

    def test_fate_log_collapses_runs_into_burst_events(self, stream):
        """Satellite: adjacent losses are one burst event — the tight
        damage bound charges resync skips per burst, not per loss."""
        system, record = stream
        _, frames = _packet_frames(system, record, 6)
        sink = _SinkWriter()
        link = LossyChannel(drop_sequences=(1, 2, 4), seed=0).wrap(sink)
        for frame in frames:
            link.write(frame)
        assert link.stats.fate_log == [
            "delivered",
            "dropped",
            "dropped",
            "delivered",
            "dropped",
            "delivered",
        ]
        assert _loss_events(link.stats) == 3
        assert _burst_events(link.stats) == 2  # {1,2} collapse to one

    def test_parity_frames_impaired_separately(self, stream):
        """PARITY frames ride the same link (loss + forced epoch drops)
        but never perturb the PACKET fate stream or its dice."""
        system, record = stream
        interval = system.config.keyframe_interval
        packets, _ = _packet_frames(system, record, 2 * interval)
        sink = _SinkWriter()
        link = LossyChannel(drop_parity_epochs=(interval,), seed=0).wrap(sink)
        for frame in _frames_with_parity(packets, interval):
            link.write(frame)
        assert link.stats.parity_seen == 2
        assert link.stats.parity_dropped == 1
        # the classic bytes view stays PACKET-only ...
        assert len(link.stats.delivered) == len(packets)
        assert len(link.stats.fate_log) == len(packets)
        # ... while delivered_frames carries the surviving parity
        kinds = [kind for kind, _ in link.stats.delivered_frames]
        assert kinds.count(int(FrameKind.PARITY)) == 1
        assert kinds.count(int(FrameKind.PACKET)) == len(packets)
        surviving = next(
            body
            for kind, body in link.stats.delivered_frames
            if kind == int(FrameKind.PARITY)
        )
        assert int.from_bytes(surviving[0:2], "big") == 0  # epoch 0 kept


class TestReplaySurvivors:
    def test_conservation_invariant_under_mixed_impairment(self, stream):
        """accepted + lost + resynced == sent, for any impairment mix
        — nothing disappears from the books."""
        system, record = stream
        total = 16
        _, frames = _packet_frames(system, record, total)
        for seed in range(8):
            sink = _SinkWriter()
            link = LossyChannel(
                loss=0.2,
                reorder=0.15,
                duplicate=0.15,
                corrupt=0.1,
                seed=seed,
            ).wrap(sink)
            for frame in frames:
                link.write(frame)
            link.write(encode_frame(FrameKind.BYE))
            accepted, accounting = replay_survivors(
                system.config,
                system.encoder.codebook,
                link.stats.delivered,
                windows_sent=total,
            )
            assert (
                len(accepted)
                + accounting.windows_lost
                + accounting.windows_resynced
                == total
            ), f"seed {seed} violated conservation"
            # a reordered frame can open a (transient) gap too: every
            # impairment event costs at most one keyframe interval
            events = (
                _loss_events(link.stats) + link.stats.frames_reordered
            )
            assert (
                _damaged(accounting)
                <= events * system.config.keyframe_interval
            ), f"seed {seed} exceeded the per-event damage bound"

    @pytest.mark.parametrize("rate", [0.01, 0.05, 0.1])
    def test_iid_loss_damage_within_the_burst_bound(self, paper_stream, rate):
        """The tight bound at the paper's keyframe interval: every lost
        frame charges its own window and each *run* of adjacent losses
        orphans at most one difference chain up to the next keyframe."""
        system, packets, frames = paper_stream
        interval = system.config.keyframe_interval
        for seed in range(16):
            link = LossyChannel(loss=rate, seed=seed).wrap(_SinkWriter())
            for frame in frames:
                link.write(frame)
            accepted, accounting = replay_survivors(
                system.config,
                system.encoder.codebook,
                link.stats.delivered,
                windows_sent=len(packets),
            )
            assert len(accepted) + _damaged(accounting) == len(
                packets
            ), f"seed {seed} violated conservation"
            bound = _loss_events(link.stats) + _burst_events(link.stats) * (
                interval - 1
            )
            assert _damaged(accounting) <= bound, (
                f"seed {seed}: damage {_damaged(accounting)} exceeds "
                f"{_loss_events(link.stats)} loss events + "
                f"{_burst_events(link.stats)} bursts x (interval - 1)"
            )

    def test_lossy_reordering_link_never_kills_a_fec_stream(
        self, paper_stream
    ):
        """40 seeds of the e2e benchmark's ``LossyChannel(0.05, 0.1)``
        over a parity-carrying stream.  Before ``ResyncAnchor`` took
        over the admission-time resync state a give-up with
        already-accepted packets at the head of the held run ended the
        stream in a ``DecodingError`` — seed 19 here, 6 of 40 in the
        live sweep that found it.  None may raise, the books balance,
        and every accepted column is the clean decode's."""
        system, packets, _ = paper_stream
        frames = _frames_with_parity(packets, system.config.keyframe_interval)
        reference = PacketPayloadDecoder(
            system.config, codebook=system.encoder.codebook
        ).measurement_block(packets, np.float64)
        for seed in range(40):
            link = LossyChannel(loss=0.05, reorder=0.1, seed=seed).wrap(
                _SinkWriter()
            )
            for frame in frames:
                link.write(frame)
            link.write(encode_frame(FrameKind.BYE))
            accepted, accounting = replay_survivors(
                system.config,
                system.encoder.codebook,
                link.stats.delivered_frames,
                windows_sent=len(packets),
                fec=True,
            )
            assert len(accepted) + _damaged(accounting) == len(
                packets
            ), f"seed {seed} violated conservation"
            for sequence, column in accepted:
                np.testing.assert_array_equal(column, reference[:, sequence])

    def test_fec_replay_conserves_and_never_does_worse(self, stream):
        """With parity in the stream, every recovered window is
        bit-identical to the clean decode, conservation stays exact,
        and total damage never exceeds the fec-off replay's."""
        system, record = stream
        interval = system.config.keyframe_interval
        total = 4 * interval
        packets, _ = _packet_frames(system, record, total)
        frames = _frames_with_parity(packets, interval)
        payload = PacketPayloadDecoder(
            system.config, codebook=system.encoder.codebook
        )
        reference = payload.measurement_block(packets, np.float64)
        for seed in range(6):
            sink = _SinkWriter()
            link = LossyChannel(loss=0.15, seed=seed).wrap(sink)
            for frame in frames:
                link.write(frame)
            link.write(encode_frame(FrameKind.BYE))
            with_fec, acc_fec = replay_survivors(
                system.config,
                system.encoder.codebook,
                link.stats.delivered_frames,
                windows_sent=total,
                fec=True,
            )
            without, acc_off = replay_survivors(
                system.config,
                system.encoder.codebook,
                link.stats.delivered,
                windows_sent=total,
            )
            assert (
                len(with_fec)
                + acc_fec.windows_lost
                + acc_fec.windows_resynced
                == total
            ), f"seed {seed} violated conservation"
            assert (
                acc_fec.windows_lost + acc_fec.windows_resynced
                <= acc_off.windows_lost + acc_off.windows_resynced
            ), f"seed {seed}: fec did worse than no fec"
            for sequence, column in with_fec:
                np.testing.assert_array_equal(
                    column, reference[:, sequence]
                )

    def test_clean_channel_fec_replay_is_loss_free(self, stream):
        """A clean channel with parity in the stream: every window
        accepted, zero recoveries, zero NACK spend."""
        system, record = stream
        interval = system.config.keyframe_interval
        total = 2 * interval + 1  # a partial final epoch too
        packets, _ = _packet_frames(system, record, total)
        sink = _SinkWriter()
        link = LossyChannel(seed=0).wrap(sink)
        for frame in _frames_with_parity(packets, interval):
            link.write(frame)
        accepted, accounting = replay_survivors(
            system.config,
            system.encoder.codebook,
            link.stats.delivered_frames,
            windows_sent=total,
            fec=True,
        )
        assert [seq for seq, _ in accepted] == list(range(total))
        assert _damaged(accounting) == 0
        assert accounting.windows_recovered == 0

    def test_clean_channel_accepts_everything(self, stream):
        system, record = stream
        total = 6
        packets, _ = _packet_frames(system, record, total)
        accepted, accounting = replay_survivors(
            system.config,
            system.encoder.codebook,
            [p.to_bytes() for p in packets],
            windows_sent=total,
        )
        assert [seq for seq, _ in accepted] == list(range(total))
        assert _damaged(accounting) == 0
        # columns equal a straight stage-1/2 decode
        payload = PacketPayloadDecoder(
            system.config, codebook=system.encoder.codebook
        )
        reference = payload.measurement_block(packets, np.float64)
        for index, (_, column) in enumerate(accepted):
            np.testing.assert_array_equal(column, reference[:, index])


def _live_fec_run(config, windows, channel, budget):
    """One paced fec link through a live gateway: its ordered result,
    the client's link, and the codebook it encoded with."""
    import asyncio

    from repro.core import EcgMonitorSystem
    from repro.ecg import SyntheticMitBih
    from repro.ingest import IngestGateway, NodeClient

    record = SyntheticMitBih(duration_s=2.0 * windows + 4.0).load("100")
    system = EcgMonitorSystem(config, precision="hybrid")
    system.calibrate(record)

    async def run():
        gateway = IngestGateway(
            batch_size=16, flush_ms=50.0, nack_budget=budget
        )
        reader, writer = gateway.connect_local()
        client = NodeClient(
            system,
            record,
            max_packets=windows,
            interval_s=0.02,  # paced: NACKs are answered between sends
            lossy_channel=channel,
            fec=True,
        )
        await asyncio.wait_for(client.run(reader, writer), timeout=60.0)
        while gateway._conn_tasks:
            await asyncio.gather(
                *list(gateway._conn_tasks), return_exceptions=True
            )
        await gateway.close()
        return gateway.results[0].ordered(), client.last_link

    result, link = asyncio.run(run())
    return result, link, system.encoder.codebook


def _assert_replay_matches_live(
    config, codebook, result, link, windows, budget
):
    accepted, accounting = replay_survivors(
        config,
        codebook,
        link.stats.delivered_frames,
        windows_sent=windows,
        fec=True,
        nack_budget=budget,
    )
    assert result.sequences == [sequence for sequence, _ in accepted]
    assert result.windows_lost == accounting.windows_lost
    assert result.windows_resynced == accounting.windows_resynced
    assert (
        result.windows_recovered_parity
        == accounting.windows_recovered_parity
    )
    assert (
        result.windows_recovered_retransmit
        == accounting.windows_recovered_retransmit
    )


def test_give_up_scenario_live_matches_replay(paper_config):
    """Regression, the scenario the e2e benchmark found: a give-up with
    an already-accepted packet at the head of the abandoned run used to
    end the link in a ``DecodingError``, live and in
    :func:`replay_survivors` alike.  Rebuilt deterministically: 20 and
    22 are dropped, 20 is NACKed and its retransmit fills, and the NACK
    22 needs would overspend a 1-NACK budget, so recovery gives up with
    20 (and 21) at the head of the held run.  Now it costs one keyframe
    resync and both sides keep identical books."""
    windows, budget = 48, 1
    result, link, codebook = _live_fec_run(
        paper_config,
        windows,
        LossyChannel(drop_sequences=(20, 22), seed=2011),
        budget,
    )
    assert result.error is None
    assert result.nacks_sent == budget
    # the retransmitted 20 and 21 left the held run ahead of the
    # abandoned 22; 23-31 waited out the chain to the keyframe at 32
    assert {20, 21} <= set(result.sequences)
    assert result.windows_lost == 1  # recovery did give up
    assert result.windows_resynced == 9
    assert result.num_windows + _damaged(result) == windows
    _assert_replay_matches_live(
        paper_config, codebook, result, link, windows, budget
    )


def test_retransmit_after_bye_counts_alike_live_and_in_replay(paper_config):
    """Regression: the last window and its epoch's parity are lost, so
    only the ``BYE`` reveals the gap and the NACKed copy arrives after
    the ``BYE``.  Live that is a retransmit fill.  The link now records
    where the ``BYE`` fell and :func:`replay_survivors` calls ``bye()``
    there; it used to call it after every recorded frame, so the copy
    replayed as a plain in-order admit and the replay read
    ``windows_recovered_retransmit`` 0."""
    windows, budget = 32, 8
    interval = paper_config.keyframe_interval
    final_epoch = windows - interval + 1  # first difference after it
    result, link, codebook = _live_fec_run(
        paper_config,
        windows,
        LossyChannel(
            drop_sequences=(windows - 1,),
            drop_parity_epochs=(final_epoch,),
            seed=2011,
        ),
        budget,
    )
    assert result.error is None
    assert link.stats.parity_dropped == 1
    kinds = [kind for kind, _ in link.stats.delivered_frames]
    bye = kinds.index(int(FrameKind.BYE))
    assert kinds[bye + 1 :] == [int(FrameKind.PACKET)]  # the retransmit
    assert result.sequences == list(range(windows))
    assert result.windows_recovered_retransmit == 1
    _assert_replay_matches_live(
        paper_config, codebook, result, link, windows, budget
    )


def test_lossy_link_exported():
    assert isinstance(LossyChannel(seed=0).wrap(_SinkWriter()), LossyLink)
