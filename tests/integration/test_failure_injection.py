"""Failure-injection tests: corrupted links, truncated payloads, losses."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SystemConfig
from repro.core import CSDecoder, CSEncoder, EncodedPacket
from repro.ecg import SyntheticMitBih
from repro.ecg.resample import resample_record
from repro.errors import DecodingError, PacketFormatError, ReproError


@pytest.fixture(scope="module")
def stream_setup():
    config = SystemConfig(max_iterations=200)  # fast solver for these tests
    encoder = CSEncoder(config)
    decoder = CSDecoder(config, codebook=encoder.codebook)
    record = resample_record(
        SyntheticMitBih(duration_s=30.0).load("100"), 256.0
    )
    samples = record.adc.digitize(record.channel(0))
    windows = [
        samples[i * config.n : (i + 1) * config.n]
        for i in range(len(samples) // config.n)
    ]
    return config, encoder, decoder, windows


class TestCorruption:
    def test_flipped_payload_bit_caught_by_crc(self, stream_setup):
        _, encoder, decoder, windows = stream_setup
        encoder.reset()
        decoder.reset()
        wire = bytearray(encoder.encode(windows[0]).to_bytes())
        wire[15] ^= 0x40
        with pytest.raises(PacketFormatError):
            decoder.decode(EncodedPacket.from_bytes(bytes(wire)))

    def test_truncated_wire_rejected(self, stream_setup):
        _, encoder, decoder, windows = stream_setup
        encoder.reset()
        decoder.reset()
        wire = encoder.encode(windows[0]).to_bytes()
        for cut in (1, 5, len(wire) // 2):
            with pytest.raises(PacketFormatError):
                decoder.decode(EncodedPacket.from_bytes(wire[:-cut]))

    def test_corrupted_huffman_payload_detected(self, stream_setup):
        """Bypass the CRC and hand the decoder garbage Huffman bits."""
        config, encoder, decoder, windows = stream_setup
        encoder.reset()
        decoder.reset()
        decoder.decode(encoder.encode(windows[0]))  # keyframe
        diff = encoder.encode(windows[1])
        corrupted = EncodedPacket(
            kind=diff.kind,
            sequence=diff.sequence,
            m=diff.m,
            payload=bytes(len(diff.payload)),  # all zeros
            payload_bits=diff.payload_bits,
        )
        with pytest.raises(ReproError):
            decoder.decode(corrupted)

    def test_all_ones_payload_detected(self, stream_setup):
        config, encoder, decoder, windows = stream_setup
        encoder.reset()
        decoder.reset()
        decoder.decode(encoder.encode(windows[0]))
        diff = encoder.encode(windows[1])
        corrupted = EncodedPacket(
            kind=diff.kind,
            sequence=diff.sequence,
            m=diff.m,
            payload=b"\xff" * len(diff.payload),
            payload_bits=diff.payload_bits,
        )
        with pytest.raises(ReproError):
            decoder.decode(corrupted)


class TestPacketLoss:
    def test_lost_difference_packet_recovers_at_keyframe(self, stream_setup):
        """Dropping a diff desynchronizes until the next keyframe."""
        base_config, _, _, windows = stream_setup
        config = base_config.replace(keyframe_interval=6)
        encoder = CSEncoder(config)
        decoder = CSDecoder(config, codebook=encoder.codebook)
        prd_by_index: dict[int, float] = {}
        for index in range(10):
            window = windows[index]
            packet = encoder.encode(window)
            if index == 2:
                continue  # packet lost on the air
            decoded = decoder.decode(packet)
            original = window.astype(np.float64) - 1024
            prd_by_index[index] = float(
                np.linalg.norm(original - (decoded.samples_adu - 1024))
                / np.linalg.norm(original)
            )
        healthy = max(prd_by_index[0], prd_by_index[1])
        # desync region (indices 3-5, before the keyframe at 6) is bad...
        assert min(prd_by_index[i] for i in (3, 4, 5)) > 2.0 * healthy
        # ...but the keyframe at index 6 restores quality
        assert prd_by_index[6] < 2.5 * healthy
        assert prd_by_index[9] < 2.5 * healthy

    def test_decoder_restart_mid_stream_waits_for_keyframe(self, stream_setup):
        config, encoder, decoder, windows = stream_setup
        encoder.reset()
        encoder.encode(windows[0])
        diff = encoder.encode(windows[1])
        fresh = CSDecoder(config, codebook=encoder.codebook)
        with pytest.raises(DecodingError):
            fresh.decode(diff)


class TestSolverStress:
    def test_tiny_iteration_budget_still_returns(self, stream_setup):
        """A starved solver degrades quality but never crashes."""
        config, encoder, _, windows = stream_setup
        starved = CSDecoder(
            config.replace(max_iterations=5), codebook=encoder.codebook
        )
        encoder.reset()
        decoded = starved.decode(encoder.encode(windows[0]))
        assert decoded.iterations == 5
        assert not decoded.converged
        assert np.all(np.isfinite(decoded.samples_adu))

    def test_constant_window_handled(self, stream_setup):
        """A flat-lined lead (disconnected electrode) must not crash."""
        config, encoder, decoder, _ = stream_setup
        encoder.reset()
        decoder.reset()
        flat = np.full(config.n, 1024, dtype=np.int64)
        decoded = decoder.decode(encoder.encode(flat))
        assert np.allclose(decoded.samples_adu, 1024.0, atol=1.0)

    def test_full_scale_square_wave_handled(self, stream_setup):
        """Worst-case saturating input stays finite end to end."""
        config, encoder, decoder, _ = stream_setup
        encoder.reset()
        decoder.reset()
        square = np.where(
            np.arange(config.n) % 64 < 32, 2047, 0
        ).astype(np.int64)
        decoded = decoder.decode(encoder.encode(square))
        assert np.all(np.isfinite(decoded.samples_adu))
