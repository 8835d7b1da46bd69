"""Wire-protocol unit tests: framing and handshake edge cases."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.config import SystemConfig
from repro.errors import ProtocolError
from repro.ingest import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameKind,
    Handshake,
    encode_frame,
    encode_json_frame,
    read_frame,
)


def _read_from(data: bytes, eof: bool = True):
    """Feed bytes into a fresh StreamReader and read one frame."""

    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(_run())


class TestFraming:
    def test_roundtrip(self):
        frame = encode_frame(FrameKind.PACKET, b"\xa5payload")
        kind, body = _read_from(frame)
        assert kind is FrameKind.PACKET
        assert body == b"\xa5payload"

    def test_empty_body_roundtrip(self):
        kind, body = _read_from(encode_frame(FrameKind.BYE))
        assert kind is FrameKind.BYE
        assert body == b""

    def test_clean_eof_returns_none(self):
        assert _read_from(b"") is None

    def test_truncated_length_prefix(self):
        with pytest.raises(ProtocolError, match="truncated frame"):
            _read_from(b"\x00\x00")

    def test_truncated_body(self):
        frame = encode_frame(FrameKind.PACKET, b"x" * 100)
        with pytest.raises(ProtocolError, match="truncated frame"):
            _read_from(frame[:20])

    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolError, match="length prefix"):
            _read_from((0).to_bytes(4, "big"))

    def test_oversized_length_rejected(self):
        prefix = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds"):
            _read_from(prefix + b"x")

    def test_unknown_frame_kind(self):
        raw = (2).to_bytes(4, "big") + bytes([200, 0])
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            _read_from(raw)

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(FrameKind.PACKET, b"x" * MAX_FRAME_BYTES)

    def test_two_frames_back_to_back(self):
        async def _run():
            reader = asyncio.StreamReader()
            reader.feed_data(
                encode_frame(FrameKind.PACKET, b"one")
                + encode_frame(FrameKind.BYE)
            )
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        first, second, third = asyncio.run(_run())
        assert first == (FrameKind.PACKET, b"one")
        assert second == (FrameKind.BYE, b"")
        assert third is None


class TestHandshake:
    def _handshake(self, **overrides) -> Handshake:
        from repro.core import EcgMonitorSystem

        config = SystemConfig(n=256, m=128, d=8, levels=4)
        system = EcgMonitorSystem(config)
        fields = dict(
            record="100",
            channel=0,
            config=config,
            codebook=system.encoder.codebook,
            precision="float64",
        )
        fields.update(overrides)
        return Handshake(**fields)

    def test_roundtrip_with_codebook(self):
        original = self._handshake(channel=1)
        frame = original.to_frame()
        kind, body = _read_from(frame)
        assert kind is FrameKind.HELLO
        parsed = Handshake.from_body(body)
        assert parsed.record == "100"
        assert parsed.channel == 1
        assert parsed.config == original.config
        assert parsed.precision == "float64"
        # canonical lengths rebuild the exact same code
        assert parsed.codebook.code.lengths == original.codebook.code.lengths
        assert parsed.codebook.offset == original.codebook.offset

    def test_roundtrip_without_codebook(self):
        parsed = Handshake.from_body(
            json.dumps(
                {**self._handshake().to_payload(), "codebook": None}
            ).encode()
        )
        assert parsed.codebook is None

    @pytest.mark.parametrize("version", [PROTOCOL_VERSION + 1, 1])
    def test_unknown_protocol_version(self, version):
        payload = self._handshake().to_payload()
        payload["protocol"] = version
        with pytest.raises(ProtocolError, match="unsupported protocol"):
            Handshake.from_body(json.dumps(payload).encode())

    def test_missing_protocol_version(self):
        payload = self._handshake().to_payload()
        del payload["protocol"]
        with pytest.raises(ProtocolError, match="unsupported protocol"):
            Handshake.from_body(json.dumps(payload).encode())

    def test_invalid_config_rejected(self):
        payload = self._handshake().to_payload()
        payload["config"]["m"] = -3
        with pytest.raises(ProtocolError, match="invalid handshake config"):
            Handshake.from_body(json.dumps(payload).encode())

    @pytest.mark.parametrize("field", ["lam", "tolerance"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_config_literal_rejected(self, field, literal):
        """``json.loads`` reads the bare ``NaN`` literal a hostile (or
        buggy) node can put on the wire."""
        payload = self._handshake().to_payload()
        payload["config"][field] = float(literal.lower()[:3])
        body = json.dumps(payload)
        assert literal in body
        with pytest.raises(ProtocolError, match="invalid handshake config"):
            Handshake.from_body(body.encode())

    def test_unknown_config_field_rejected(self):
        payload = self._handshake().to_payload()
        payload["config"]["surprise"] = 1
        with pytest.raises(ProtocolError, match="invalid handshake config"):
            Handshake.from_body(json.dumps(payload).encode())

    @pytest.mark.parametrize(
        "field, cap_name",
        [
            ("max_iterations", "MAX_SOLVER_ITERATIONS"),
            ("keyframe_interval", "MAX_KEYFRAME_INTERVAL"),
        ],
    )
    def test_node_supplied_budgets_capped(self, field, cap_name):
        """A value at the cap parses; one past it is refused (the
        hostile case: 2 * 10^9 iterations, a 10^9-window hold cap)."""
        from repro.ingest import protocol

        cap = getattr(protocol, cap_name)
        payload = self._handshake().to_payload()
        payload["config"][field] = cap
        parsed = Handshake.from_body(json.dumps(payload).encode())
        assert getattr(parsed.config, field) == cap
        payload["config"][field] = cap + 1
        with pytest.raises(ProtocolError, match=f"{field}.*exceeds the cap"):
            Handshake.from_body(json.dumps(payload).encode())

    def test_bad_precision_rejected(self):
        payload = self._handshake().to_payload()
        payload["precision"] = "float16"
        with pytest.raises(ProtocolError, match="precision"):
            Handshake.from_body(json.dumps(payload).encode())

    def test_malformed_codebook_rejected(self):
        payload = self._handshake().to_payload()
        payload["codebook"] = {"offset": 0}  # no lengths table
        with pytest.raises(ProtocolError, match="codebook"):
            Handshake.from_body(json.dumps(payload).encode())

    def test_node_supplied_codeword_lengths_capped(self):
        """The code tables are sized by the longest codeword: 16 bits
        (the paper's cap) parses, one more is refused before any table
        is built — a single length of 10^7 used to stall the event
        loop for minutes inside ``HuffmanCode.__init__``."""
        import time

        from repro.config import HUFFMAN_MAX_CODE_BITS

        payload = self._handshake().to_payload()
        payload["codebook"] = {
            "offset": -256,
            "lengths": [1] + [HUFFMAN_MAX_CODE_BITS] * 511,
        }
        parsed = Handshake.from_body(json.dumps(payload).encode())
        assert max(parsed.codebook.code.lengths) == HUFFMAN_MAX_CODE_BITS
        for hostile in (HUFFMAN_MAX_CODE_BITS + 1, 20_000, 10**7):
            payload["codebook"]["lengths"] = [1] + [hostile] * 511
            started = time.perf_counter()
            with pytest.raises(
                ProtocolError, match="invalid handshake codebook.*16-bit cap"
            ):
                Handshake.from_body(json.dumps(payload).encode())
            assert time.perf_counter() - started < 0.05

    @pytest.mark.parametrize(
        "symbols", [65_536, 250_000], ids=["kraft-exact", "kraft-over"]
    )
    def test_node_supplied_alphabet_capped(self, symbols):
        """A table of 16-bit codewords is bounded by the 1 MiB frame
        alone unless the alphabet is: 65,536 of them (Kraft sum exactly
        1, a 192 KiB HELLO) used to be accepted after ~90 ms of table
        building on the event loop, 250,000 (732 KiB) refused by the
        Kraft check only after ~110 ms.  More than the paper's 512
        symbols is refused before a length is read."""
        import time

        from repro.config import HUFFMAN_SYMBOLS
        from repro.ingest.protocol import MAX_FRAME_BYTES

        payload = self._handshake().to_payload()
        payload["codebook"] = {"offset": -256, "lengths": [16] * symbols}
        body = json.dumps(payload, separators=(",", ":")).encode()
        assert len(body) < MAX_FRAME_BYTES
        started = time.perf_counter()
        with pytest.raises(
            ProtocolError,
            match=f"invalid handshake codebook.*{HUFFMAN_SYMBOLS}-symbol cap",
        ):
            Handshake.from_body(body)
        assert time.perf_counter() - started < 0.05

    def test_non_json_body_rejected(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            Handshake.from_body(b"\xff\xfe not json")

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            Handshake.from_body(b"[1, 2, 3]")

    def test_json_frame_helper(self):
        kind, body = _read_from(
            encode_json_frame(FrameKind.ERROR, {"error": "nope"})
        )
        assert kind is FrameKind.ERROR
        assert json.loads(body) == {"error": "nope"}
