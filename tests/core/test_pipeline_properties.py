"""Property-based end-to-end invariants of the encoder/decoder pair."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core import CSDecoder, CSEncoder, EncodedPacket


@pytest.fixture(scope="module")
def tiny_config():
    """Smallest sensible system for fast property exploration."""
    return SystemConfig(
        n=128, m=64, d=6, levels=3, max_iterations=30, tolerance=1e-3,
        keyframe_interval=3,
    )


@pytest.fixture(scope="module")
def tiny_pair(tiny_config):
    encoder = CSEncoder(tiny_config)
    decoder = CSDecoder(tiny_config, codebook=encoder.codebook)
    return encoder, decoder


class TestWireInvariants:
    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.integers(0, 2047), min_size=128, max_size=128))
    def test_any_adu_window_produces_valid_wire_packet(
        self, tiny_pair, values
    ):
        """Whatever 11-bit samples arrive, the wire packet round-trips."""
        encoder, _ = tiny_pair
        encoder.reset()
        window = np.asarray(values, dtype=np.int64)
        packet = encoder.encode(window)
        parsed = EncodedPacket.from_bytes(packet.to_bytes())
        assert parsed == packet

    @settings(deadline=None, max_examples=15)
    @given(
        st.lists(
            st.lists(st.integers(0, 2047), min_size=128, max_size=128),
            min_size=2,
            max_size=5,
        )
    )
    def test_measurement_path_is_lossless_modulo_quantizer(
        self, tiny_config, windows
    ):
        """Stages 1-2 (sensing + diff + Huffman) reconstruct the encoder's
        quantized measurements exactly for arbitrary input streams."""
        encoder = CSEncoder(tiny_config)
        decoder = CSDecoder(tiny_config, codebook=encoder.codebook)
        encoder.reset()
        decoder.reset()
        reference_codec_state = None
        for values in windows:
            window = np.asarray(values, dtype=np.int64)
            packet = encoder.encode(window)
            y_q_decoder = decoder._decode_payload(packet)
            # both sides must hold identical DPCM references afterwards
            assert np.array_equal(
                encoder.codec._reference, decoder.payload.codec._reference
            )
            del reference_codec_state
            reference_codec_state = y_q_decoder

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 2**32 - 1))
    def test_matching_seeds_round_trip_any_seed(self, tiny_config, seed):
        """Encoder/decoder agree for every shared sensing seed."""
        config = tiny_config.replace(seed=seed)
        encoder = CSEncoder(config)
        decoder = CSDecoder(config, codebook=encoder.codebook)
        window = np.full(config.n, 1024, dtype=np.int64)
        window[:: config.n // 8] += 100
        decoded = decoder.decode(encoder.encode(window))
        assert np.all(np.isfinite(decoded.samples_adu))


class TestStreamInvariants:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(1, 12))
    def test_keyframe_cadence_any_stream_length(self, tiny_config, count):
        encoder = CSEncoder(tiny_config)
        encoder.reset()
        window = np.full(tiny_config.n, 1024, dtype=np.int64)
        kinds = [encoder.encode(window).kind.name for _ in range(count)]
        for index, kind in enumerate(kinds):
            expected = (
                "KEYFRAME"
                if index % tiny_config.keyframe_interval == 0
                else "DIFFERENCE"
            )
            assert kind == expected

    @settings(deadline=None, max_examples=10)
    @given(st.lists(st.integers(900, 1100), min_size=128, max_size=128))
    def test_compression_never_negative_for_smooth_streams(
        self, tiny_config, values
    ):
        """Near-constant physiological streams always compress."""
        encoder = CSEncoder(tiny_config)
        encoder.reset()
        window = np.asarray(values, dtype=np.int64)
        encoder.encode(window)  # keyframe
        packet = encoder.encode(window)  # identical content -> tiny diff
        assert packet.total_bits < tiny_config.original_packet_bits
