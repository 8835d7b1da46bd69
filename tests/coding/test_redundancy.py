"""Tests for inter-packet redundancy removal (DPCM with keyframes)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import DifferentialCodec
from repro.errors import DecodingError


def _paired_codecs(**kwargs):
    return DifferentialCodec(**kwargs), DifferentialCodec(**kwargs)


class TestBasics:
    def test_first_packet_is_keyframe(self):
        codec = DifferentialCodec()
        is_key, payload = codec.encode(np.array([1, 2, 3]))
        assert is_key
        assert list(payload) == [1, 2, 3]

    def test_second_packet_is_difference(self):
        codec = DifferentialCodec()
        codec.encode(np.array([10, 20, 30]))
        is_key, diff = codec.encode(np.array([11, 19, 30]))
        assert not is_key
        assert list(diff) == [1, -1, 0]

    def test_keyframe_interval(self):
        codec = DifferentialCodec(keyframe_interval=3)
        kinds = [codec.encode(np.array([i]))[0] for i in range(7)]
        assert kinds == [True, False, False, True, False, False, True]

    def test_reset_forces_keyframe(self):
        codec = DifferentialCodec(keyframe_interval=3)
        codec.encode(np.array([1]))
        codec.encode(np.array([1]))
        codec.reset()
        assert codec.encode(np.array([2]))[0] is True
        # the packet count restarted with it: the next keyframe is one
        # full interval after the reset, not after the first packet
        kinds = [codec.encode(np.array([i]))[0] for i in range(3)]
        assert kinds == [False, False, True]

    def test_length_change_rejected(self):
        codec = DifferentialCodec()
        codec.encode(np.array([1, 2]))
        with pytest.raises(ValueError):
            codec.encode(np.array([1, 2, 3]))

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            DifferentialCodec(keyframe_interval=0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            DifferentialCodec(diff_min=1, diff_max=10)

    def test_non_integer_input_rejected(self):
        codec = DifferentialCodec()
        with pytest.raises(TypeError):
            codec.encode(np.array([1.5, 2.5]))

    def test_2d_input_rejected(self):
        codec = DifferentialCodec()
        with pytest.raises(ValueError):
            codec.encode(np.array([[1, 2], [3, 4]]))


class TestSaturation:
    def test_diff_saturates_at_rails(self):
        codec = DifferentialCodec()
        codec.encode(np.array([0, 0]))
        _, diff = codec.encode(np.array([1000, -1000]))
        assert list(diff) == [255, -256]

    def test_closed_loop_recovers_after_saturation(self):
        """Encoder tracks decoder state, so saturation heals over packets."""
        encoder, decoder = _paired_codecs()
        target = np.array([1000])
        decoded = None
        decoder.decode(*_swap(encoder.encode(np.array([0]))))
        for _ in range(5):
            decoded = decoder.decode(*_swap(encoder.encode(target)))
        assert list(decoded) == [1000]

    def test_saturation_fraction_is_strict(self):
        """Regression: rail values are representable, not clipped."""
        codec = DifferentialCodec()
        assert codec.saturation_fraction(np.array([0, 255, -256, 10])) == 0.0
        assert codec.saturation_fraction(np.array([0, 256, -257, 10])) == 0.5
        assert codec.saturation_fraction(np.array([], dtype=int)) == 0.0

    def test_last_clip_count_strict(self):
        codec = DifferentialCodec()
        codec.encode(np.array([0, 0, 0]))  # keyframe
        assert codec.last_clip_count == 0
        # one exactly at each rail (representable), one truly clipped
        _, diff = codec.encode(np.array([255, -256, 400]))
        assert list(diff) == [255, -256, 255]
        assert codec.last_clip_count == 1


def _swap(pair):
    is_key, payload = pair
    return is_key, payload


class TestDecoder:
    def test_difference_before_keyframe_rejected(self):
        decoder = DifferentialCodec()
        with pytest.raises(DecodingError):
            decoder.decode(False, np.array([1, 2]))

    def test_length_mismatch_rejected(self):
        encoder, decoder = _paired_codecs()
        decoder.decode(*encoder.encode(np.array([1, 2])))
        with pytest.raises(DecodingError):
            decoder.decode(False, np.array([1, 2, 3]))

    def test_out_of_range_diff_rejected(self):
        decoder = DifferentialCodec()
        decoder.decode(True, np.array([0, 0]))
        with pytest.raises(DecodingError):
            decoder.decode(False, np.array([300, 0]))

    def test_keyframe_resynchronizes(self):
        encoder, decoder = _paired_codecs(keyframe_interval=4)
        stream = [np.array([i, 2 * i]) for i in range(10)]
        outputs = [decoder.decode(*encoder.encode(x)) for x in stream]
        for x, y in zip(stream, outputs):
            assert list(x) == list(y)


class TestRoundtripProperties:
    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.lists(st.integers(-1024, 1024), min_size=4, max_size=4),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 8),
    )
    def test_smooth_streams_roundtrip_exactly(self, deltas, interval):
        """Streams whose per-packet jumps fit the diff range are lossless."""
        encoder, decoder = _paired_codecs(keyframe_interval=interval)
        current = np.array([0, 0, 0, 0], dtype=np.int64)
        for delta in deltas:
            step = np.clip(np.asarray(delta, dtype=np.int64), -256, 255)
            current = current + step
            decoded = decoder.decode(*encoder.encode(current))
            assert np.array_equal(decoded, current)

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.lists(st.integers(-30_000, 30_000), min_size=3, max_size=3),
            min_size=1,
            max_size=30,
        )
    )
    def test_arbitrary_streams_converge_at_keyframes(self, packets):
        """Whatever saturation does, every keyframe restores exactness."""
        encoder, decoder = _paired_codecs(keyframe_interval=4)
        for index, packet in enumerate(packets):
            x = np.asarray(packet, dtype=np.int64)
            decoded = decoder.decode(*encoder.encode(x))
            if index % 4 == 0:  # keyframe slots
                assert np.array_equal(decoded, x)

    @settings(deadline=None, max_examples=20)
    @given(
        st.lists(
            st.lists(st.integers(-32_768, 32_767), min_size=2, max_size=2),
            min_size=2,
            max_size=30,
        )
    )
    def test_encoder_decoder_states_never_diverge(self, packets):
        """Closed-loop DPCM: both sides hold identical references."""
        encoder, decoder = _paired_codecs(keyframe_interval=100)
        for packet in packets:
            x = np.asarray(packet, dtype=np.int64)
            decoded = decoder.decode(*encoder.encode(x))
            assert np.array_equal(encoder._reference, decoder._reference)
            del decoded
