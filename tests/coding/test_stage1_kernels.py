"""The word-at-a-time codec kernels against their bit-at-a-time oracles.

Stage 1 of the coordinator (CRC check, Huffman decode, bit I/O) and its
mirror on the node run C-backed or table-driven kernels.  Each keeps a
slow, obviously-right reference — the CRC bit loop and the per-bit
writer live here, the first-code walk is ``HuffmanCode.decode_symbol``
— and these tests hold the fast kernel to it: same bytes, same symbols,
same reader position, same exception class.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    BitReader,
    BitWriter,
    DifferentialCodec,
    HuffmanCode,
    train_codebook,
)
from repro.coding.fec import xor_fold
from repro.config import SystemConfig
from repro.core import CSEncoder, EncodedPacket, PacketKind, crc16_ccitt
from repro.core.decoder import PacketPayloadDecoder
from repro.ecg import SyntheticMitBih
from repro.errors import BitstreamError, DecodingError
from repro.ingest.channel import ResyncAnchor, SequenceTracker, admit_packet


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def crc16_bit_loop(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE one bit at a time (the MCU loop)."""
    crc = initial
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def write_bits_bitwise(writer: BitWriter, value: int, width: int) -> None:
    """``BitWriter.write_bits`` through single ``write_bit`` calls."""
    for shift in range(width - 1, -1, -1):
        writer.write_bit((value >> shift) & 1)


def xor_fold_bytewise(bodies: list[bytes]) -> bytes:
    """``xor_fold`` one byte at a time."""
    folded = bytearray(max(len(body) for body in bodies))
    for body in bodies:
        for index, byte in enumerate(body):
            folded[index] ^= byte
    return bytes(folded)


def decode_walk(code: HuffmanCode, reader: BitReader, count: int) -> list[int]:
    """``HuffmanCode.decode`` as a loop over the first-code walk."""
    return [code.decode_symbol(reader) for _ in range(count)]


def outcome(call):
    """A call's result, or the class of what it raised."""
    try:
        return call()
    except (BitstreamError, DecodingError) as exc:
        return type(exc)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def length_tables(draw) -> list[int]:
    """Codeword length tables: complete, with holes, single-symbol.

    Grows a random prefix tree by splitting leaves (so the table is
    always Kraft-valid and reaches depths 1..16), optionally prunes
    leaves (Kraft sum < 1: prefixes no codeword owns), and scatters
    absent symbols through the alphabet.
    """
    max_length = draw(st.integers(1, 16))
    if draw(st.booleans()) and draw(st.booleans()):
        leaves = [draw(st.integers(1, max_length))]  # single symbol
    else:
        leaves = [1, 1]
        for _ in range(draw(st.integers(0, 40))):
            index = draw(st.integers(0, len(leaves) - 1))
            if leaves[index] < max_length:
                depth = leaves.pop(index)
                leaves += [depth + 1, depth + 1]
        if draw(st.booleans()):
            kept = [d for d in leaves if draw(st.booleans())]
            leaves = kept or leaves[:1]
    table = leaves + [0] * draw(st.integers(0, 3))
    return draw(st.permutations(table))


@st.composite
def streams(draw, code: HuffmanCode) -> tuple[bytes, int]:
    """A payload for ``code``: valid, damaged, truncated or noise."""
    if draw(st.booleans()):
        data = draw(st.binary(max_size=24))
    else:
        coded = [s for s, length in enumerate(code.lengths) if length]
        message = draw(st.lists(st.sampled_from(coded), max_size=40))
        data = code.encode(message).getvalue()
    bit_length = draw(st.integers(0, 8 * len(data)))
    return data, bit_length


# ----------------------------------------------------------------------
# (i) table decode == first-code walk
# ----------------------------------------------------------------------

class TestTableDecodeMatchesWalk:
    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_random_codes_and_streams(self, data):
        code = HuffmanCode(data.draw(length_tables()))
        payload, bit_length = data.draw(streams(code))
        count = data.draw(st.integers(0, 48))
        skipped = data.draw(st.integers(0, min(bit_length, 9)))

        fast = BitReader(payload, bit_length=bit_length)
        slow = BitReader(payload, bit_length=bit_length)
        fast.read_bits(skipped)
        slow.read_bits(skipped)
        got = outcome(lambda: code.decode(fast, count))
        want = outcome(lambda: decode_walk(code, slow, count))
        assert got == want
        assert fast.position == slow.position

    @pytest.mark.parametrize("max_length", [1, 5, 12, 13, 16, 40])
    def test_codewords_on_both_sides_of_the_table_width(self, max_length):
        """One codeword per length 1..max_length (a comb): every length
        at, below and beyond the table's index width decodes, also at
        lengths past the wire cap (offline, unbounded Huffman)."""
        code = HuffmanCode(list(range(1, max_length + 1)))
        message = list(range(max_length)) * 3
        writer = code.encode(message)
        reader = BitReader(writer.getvalue(), bit_length=len(writer))
        assert code.decode(reader, len(message)) == message
        assert reader.remaining == 0

    def test_codeword_running_off_the_end(self):
        code = HuffmanCode([1, 2, 3, 3])  # 0, 10, 110, 111
        reader = BitReader(b"\xc0", bit_length=2)  # "11": no codeword yet
        with pytest.raises(BitstreamError):
            code.decode(reader, 1)
        assert reader.position == 2

    def test_prefix_no_codeword_owns(self):
        code = HuffmanCode([2, 2, 2])  # 00, 01, 10 — "11" is a hole
        reader = BitReader(b"\x3f", bit_length=8)  # 00 11 11 11
        with pytest.raises(DecodingError):
            code.decode(reader, 2)
        assert reader.position == 4

    def test_padding_bits_past_bit_length_are_never_read(self):
        code = HuffmanCode([1, 2, 2])  # 0, 10, 11
        # bit_length 1 holds "1"; the byte's other bits would complete
        # "11" if they were looked at
        reader = BitReader(b"\xff", bit_length=1)
        with pytest.raises(BitstreamError):
            code.decode(reader, 1)


# ----------------------------------------------------------------------
# (ii) CRC
# ----------------------------------------------------------------------

class TestCrcMatchesBitLoop:
    def test_the_oracle_has_the_check_value(self):
        # (crc16_ccitt's own is pinned in tests/core/test_packets.py)
        assert crc16_bit_loop(b"123456789") == 0x29B1

    @given(st.binary(max_size=600), st.integers(0, 0xFFFF))
    def test_random_bodies_and_initial_values(self, body, initial):
        assert crc16_ccitt(body, initial) == crc16_bit_loop(body, initial)
        assert crc16_ccitt(body) == crc16_bit_loop(body)


# ----------------------------------------------------------------------
# (iii) write side
# ----------------------------------------------------------------------

_WRITES = st.one_of(
    st.tuples(st.just("bit"), st.integers(0, 1)),
    st.integers(0, 70).flatmap(
        lambda width: st.tuples(
            st.just("bits"),
            st.integers(0, (1 << width) - 1),
            st.just(width),
        )
    ),
    st.tuples(st.just("symbols"), st.lists(st.integers(0, 15), max_size=12)),
)


class TestWriterMatchesBitwise:
    @settings(deadline=None)
    @given(st.integers(0, 7), st.lists(_WRITES, max_size=24))
    def test_mixed_writes_from_every_alignment(self, alignment, writes):
        code = HuffmanCode([2, 3, 3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8])
        fast, slow = BitWriter(), BitWriter()
        for writer in (fast, slow):
            for _ in range(alignment):
                writer.write_bit(1)
        for op, *args in writes:
            if op == "bit":
                fast.write_bit(*args)
                slow.write_bit(*args)
            elif op == "bits":
                fast.write_bits(*args)
                write_bits_bitwise(slow, *args)
            else:
                code.encode(args[0], fast)
                for symbol in args[0]:
                    write_bits_bitwise(slow, *code.codeword(symbol))
            assert len(fast) == len(slow)
        assert fast.getvalue() == slow.getvalue()

    def test_long_run_on_the_default_codebook(self):
        """Every symbol of the 16-bit default codebook, many times: the
        whole run is one big-int write and reads back through both the
        table and its long-codeword fallback."""
        code = train_codebook().code
        rng = np.random.default_rng(7)
        message = rng.integers(0, code.num_symbols, 3000).tolist()
        fast = code.encode(message)
        slow = BitWriter()
        for symbol in message:
            write_bits_bitwise(slow, *code.codeword(symbol))
        assert len(fast) == len(slow)
        assert fast.getvalue() == slow.getvalue()
        reader = BitReader(fast.getvalue(), bit_length=len(fast))
        assert code.decode(reader, len(message)) == message

    @given(st.binary(max_size=40), st.integers(0, 70))
    def test_reader_words_match_single_bits(self, data, width):
        fast, slow = BitReader(data), BitReader(data)
        want = outcome(
            lambda: sum(
                slow.read_bit() << shift
                for shift in range(width - 1, -1, -1)
            )
        )
        assert outcome(lambda: fast.read_bits(width)) == want
        assert fast.position == slow.position


# ----------------------------------------------------------------------
# XOR parity
# ----------------------------------------------------------------------

class TestXorFoldMatchesBytewise:
    @given(st.lists(st.binary(max_size=64), min_size=1, max_size=17))
    def test_random_bodies(self, bodies):
        assert xor_fold(bodies) == xor_fold_bytewise(bodies)


# ----------------------------------------------------------------------
# (iv) encoder -> wire -> decode_payload on a full record
# ----------------------------------------------------------------------

def _reference_wire(encoder: CSEncoder, windows: np.ndarray) -> list[bytes]:
    """The record's wire packets built the slow way: scalar sensing and
    differencing, one ``write_bit`` per payload bit, the CRC bit loop."""
    codec = DifferentialCodec(
        keyframe_interval=encoder.config.keyframe_interval
    )
    wire = []
    for sequence, window in enumerate(windows):
        is_keyframe, values = codec.encode(encoder.measure(window))
        if is_keyframe:
            payload = values.astype(">i2").tobytes()
            kind, bits = PacketKind.KEYFRAME, 16 * len(values)
        else:
            writer = BitWriter()
            for value in values:
                write_bits_bitwise(
                    writer,
                    *encoder.codebook.code.codeword(
                        encoder.codebook.symbol_for(value)
                    ),
                )
            payload, bits = writer.getvalue(), len(writer)
            kind = PacketKind.DIFFERENCE
        body = (
            EncodedPacket(
                kind=kind,
                sequence=sequence,
                m=encoder.config.m,
                payload=payload,
                payload_bits=bits,
            ).header_bytes()
            + payload
        )
        wire.append(body + crc16_bit_loop(body).to_bytes(2, "big"))
    return wire


def _reference_measurements(
    config: SystemConfig, codebook, wire: list[bytes]
) -> list[np.ndarray]:
    """Stage 1-2 the slow way: the first-code walk, ``value_for``."""
    codec = DifferentialCodec(keyframe_interval=config.keyframe_interval)
    out = []
    for body in wire:
        packet = EncodedPacket.from_bytes(body)
        if packet.kind is PacketKind.KEYFRAME:
            values = np.frombuffer(packet.payload, dtype=">i2").astype(np.int64)
            out.append(codec.decode(True, values))
            continue
        reader = BitReader(packet.payload, bit_length=packet.payload_bits)
        symbols = decode_walk(codebook.code, reader, config.m)
        assert reader.remaining < 8
        diffs = np.asarray(
            [codebook.value_for(s) for s in symbols], dtype=np.int64
        )
        out.append(codec.decode(False, diffs))
    return out


class TestRecordRoundTrip:
    @pytest.mark.parametrize("trained", [False, True], ids=["default", "trained"])
    def test_wire_and_measurements_identical_to_reference(self, trained):
        config = SystemConfig(keyframe_interval=8)
        record = SyntheticMitBih(duration_s=120.0, seed=2011).load("100")
        samples = record.adc.digitize(record.channel(0))
        samples = samples[: 84 * config.n].reshape(-1, config.n)
        windows, calibration = samples[:28].copy(), samples[28:]
        # full-scale steps between windows: rail-valued (and clipped)
        # differences, the codebook's longest codewords
        windows[5] = 0
        windows[6] = (1 << config.adc_bits) - 1
        windows[13:15] = windows[13:15][:, ::-1]

        encoder = CSEncoder(config)
        if trained:
            # calibrated on the quiet rest of the record, so the steps
            # above are values the training never saw
            encoder.train_codebook_on(list(calibration))

        packets = encoder.encode_batch(windows)
        wire = [packet.to_bytes() for packet in packets]
        assert wire == _reference_wire(encoder, windows)
        assert encoder.stats.keyframes == 4
        assert encoder.stats.saturated_symbols > 0

        decoder = PacketPayloadDecoder(config, codebook=encoder.codebook)
        got = [
            decoder.decode_payload(EncodedPacket.from_bytes(body))
            for body in wire
        ]
        want = _reference_measurements(config, encoder.codebook, wire)
        assert len(got) == len(want) == len(windows)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

        # the record reaches past the lookup table's index width
        code = encoder.codebook.code
        used = {
            code.lengths[symbol]
            for packet in packets
            if packet.kind is PacketKind.DIFFERENCE
            for symbol in code.decode(
                BitReader(packet.payload, bit_length=packet.payload_bits),
                config.m,
            )
        }
        assert min(used) <= 12 < max(used)


# ----------------------------------------------------------------------
# The hot path takes no per-bit call (a count, not a stopwatch)
# ----------------------------------------------------------------------

class TestHotPathIsNotPerBit:
    def test_decode_and_admit_never_walk_bits(self, monkeypatch):
        config = SystemConfig()
        encoder = CSEncoder(config)
        rng = np.random.default_rng(3)
        windows = rng.integers(0, 1 << config.adc_bits, (2, config.n))
        keyframe, difference = encoder.encode_batch(windows)
        assert difference.kind is PacketKind.DIFFERENCE

        calls = {"read_bit": 0, "decode_symbol": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            BitReader, "read_bit", counted("read_bit", BitReader.read_bit)
        )
        monkeypatch.setattr(
            HuffmanCode,
            "decode_symbol",
            counted("decode_symbol", HuffmanCode.decode_symbol),
        )

        tracker, anchor = SequenceTracker(), ResyncAnchor()
        decoder = PacketPayloadDecoder(config, codebook=encoder.codebook)
        for packet in (keyframe, difference):
            verdict, admitted = admit_packet(tracker, anchor, packet.to_bytes())
            assert verdict.name == "ACCEPT"
            decoder.decode_payload(admitted)
        assert calls == {"read_bit": 0, "decode_symbol": 0}

        # the counters do count: the reference walk trips both
        reader = BitReader(difference.payload, bit_length=difference.payload_bits)
        decode_walk(encoder.codebook.code, reader, config.m)
        assert calls["decode_symbol"] == config.m
        assert calls["read_bit"] == difference.payload_bits
