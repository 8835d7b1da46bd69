"""Tests for CSEncoder and CSDecoder (stage-by-stage and paired)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CSDecoder, CSEncoder, PacketKind
from repro.errors import ConfigurationError, DecodingError


@pytest.fixture(scope="module")
def pair(small_config):
    encoder = CSEncoder(small_config)
    decoder = CSDecoder(small_config, codebook=encoder.codebook)
    return encoder, decoder


@pytest.fixture()
def windows(database, small_config):
    from repro.ecg.resample import resample_record

    record = resample_record(database.load("100"), 256.0)
    samples = record.adc.digitize(record.channel(0))
    n = small_config.n
    return [samples[i * n : (i + 1) * n] for i in range(len(samples) // n)]


class TestEncoder:
    def test_first_packet_is_keyframe(self, pair, windows):
        encoder, _ = pair
        encoder.reset()
        packet = encoder.encode(windows[0])
        assert packet.kind is PacketKind.KEYFRAME

    def test_difference_packets_follow(self, pair, windows):
        encoder, _ = pair
        encoder.reset()
        encoder.encode(windows[0])
        packet = encoder.encode(windows[1])
        assert packet.kind is PacketKind.DIFFERENCE

    def test_keyframe_interval_respected(self, pair, windows):
        encoder, _ = pair
        encoder.reset()
        interval = encoder.config.keyframe_interval
        kinds = []
        for index in range(min(len(windows), interval + 2)):
            kinds.append(encoder.encode(windows[index % len(windows)]).kind)
        assert kinds[0] is PacketKind.KEYFRAME
        if len(kinds) > interval:
            assert kinds[interval] is PacketKind.KEYFRAME
        assert all(k is PacketKind.DIFFERENCE for k in kinds[1:interval])

    def test_difference_packets_are_smaller(self, pair, windows):
        encoder, _ = pair
        encoder.reset()
        keyframe = encoder.encode(windows[0])
        diff = encoder.encode(windows[1])
        assert diff.total_bits < keyframe.total_bits

    def test_compression_achieved(self, pair, windows, small_config):
        encoder, _ = pair
        encoder.reset()
        for window in windows[:6]:
            encoder.encode(window)
        assert encoder.stats.compression_ratio_percent > 30.0
        assert encoder.stats.packets == 6
        assert encoder.stats.keyframes == 1

    def test_wrong_window_length_rejected(self, pair):
        encoder, _ = pair
        with pytest.raises(ValueError):
            encoder.encode(np.zeros(10, dtype=np.int64))

    def test_float_window_rejected(self, pair, small_config):
        encoder, _ = pair
        with pytest.raises(TypeError):
            encoder.encode(np.zeros(small_config.n))

    def test_sequence_numbers_increment(self, pair, windows):
        encoder, _ = pair
        encoder.reset()
        sequences = [encoder.encode(w).sequence for w in windows[:4]]
        assert sequences == [0, 1, 2, 3]

    def test_codebook_range_validated(self, small_config):
        from repro.coding import train_codebook

        narrow = train_codebook(num_symbols=64, offset=-32)
        with pytest.raises(ConfigurationError):
            CSEncoder(small_config, codebook=narrow)

    def test_offline_training_improves_or_matches_default(
        self, small_config, windows
    ):
        default = CSEncoder(small_config)
        default.reset()
        for window in windows[:8]:
            default.encode(window)
        trained = CSEncoder(small_config)
        trained.train_codebook_on(windows[:8])
        trained.reset()
        for window in windows[:8]:
            trained.encode(window)
        # the tiny calibration corpus (a few hundred symbols over a
        # 512-symbol alphabet) can land slightly above the shipped
        # Laplacian default, but must stay in the same ballpark
        assert trained.stats.output_bits <= default.stats.output_bits * 1.15

    def test_training_needs_difference_symbols(self, small_config, windows):
        encoder = CSEncoder(small_config)
        with pytest.raises(ConfigurationError):
            encoder.train_codebook_on(windows[:1])  # only a keyframe


class TestPacketPayloadDecoder:
    """The operator-free stages 1-2 split used by fleet workers."""

    def test_matches_full_decoder_payloads(self, small_config, windows):
        from repro.core import PacketPayloadDecoder

        encoder = CSEncoder(small_config)
        encoder.reset()
        packets = [encoder.encode(w) for w in windows[:5]]
        standalone = PacketPayloadDecoder(
            small_config, codebook=encoder.codebook
        )
        full = CSDecoder(small_config, codebook=encoder.codebook)
        block = standalone.measurement_block(packets, np.float64)
        assert block.shape == (small_config.m, 5)
        # the full decoder's own stages 1-2, through its aliases
        for column, packet in enumerate(packets):
            y = full.quantizer.dequantize(full._decode_payload(packet))
            np.testing.assert_allclose(y, block[:, column])

    def test_decoder_aliases_delegate(self, small_config):
        from repro.coding import train_codebook
        from repro.core import MeasurementQuantizer

        decoder = CSDecoder(small_config)
        assert decoder.codebook is decoder.payload.codebook
        assert decoder.quantizer is decoder.payload.quantizer
        replacement = train_codebook()
        decoder.codebook = replacement
        assert decoder.payload.codebook is replacement
        shifted = MeasurementQuantizer(shift=3, d=small_config.d)
        decoder.quantizer = shifted
        assert decoder.payload.quantizer is shifted

    def test_m_mismatch_detected(self, small_config):
        from repro.core import PacketPayloadDecoder

        other = small_config.replace(m=small_config.m // 2)
        encoder = CSEncoder(other)
        encoder.reset()
        packet = encoder.encode(np.zeros(other.n, dtype=np.int64))
        standalone = PacketPayloadDecoder(small_config)
        with pytest.raises(DecodingError):
            standalone.decode_payload(packet)


class TestDecoder:
    def test_invalid_precision_rejected(self, small_config):
        with pytest.raises(ConfigurationError):
            CSDecoder(small_config, precision="float16")

    def test_measurements_recovered_exactly(self, pair, windows):
        """Stages 1-2 are lossless: decoder sees the encoder's y_q."""
        encoder, decoder = pair
        encoder.reset()
        decoder.reset()
        for window in windows[:5]:
            y_q = encoder.measure(window)
            # the codec state advances inside encode(); replicate order
            packet = encoder.encode(window)
            measured = decoder.payload.measurement_block([packet], np.float64)
            expected = decoder.quantizer.dequantize(y_q)
            # note: encoder.measure was called twice (measure + encode),
            # so compare against the decoder's reconstruction instead
            assert np.allclose(
                measured[:, 0], expected, atol=decoder.quantizer.step
            )

    def test_m_mismatch_detected(self, small_config, pair):
        encoder, _ = pair
        encoder.reset()
        other = CSDecoder(
            small_config.replace(m=small_config.m // 2),
        )
        packet = encoder.encode(
            np.zeros(small_config.n, dtype=np.int64) + 1024
        )
        with pytest.raises(DecodingError):
            other.decode(packet)

    def test_difference_before_keyframe_rejected(self, pair, windows):
        encoder, _ = pair
        encoder.reset()
        encoder.encode(windows[0])
        diff_packet = encoder.encode(windows[1])
        fresh = CSDecoder(encoder.config, codebook=encoder.codebook)
        with pytest.raises(DecodingError):
            fresh.decode(diff_packet)

    def test_lipschitz_precomputed_and_positive(self, pair):
        _, decoder = pair
        assert decoder.resources.solver.lipschitz > 0.0

    def test_reconstruction_quality(self, pair, windows, small_config):
        encoder, decoder = pair
        encoder.reset()
        decoder.reset()
        prds = []
        for window in windows[:5]:
            packet = encoder.encode(window)
            decoded = decoder.decode(packet)
            original = window.astype(np.float64) - 1024
            reconstructed = decoded.samples_adu - 1024
            prds.append(
                np.linalg.norm(original - reconstructed)
                / np.linalg.norm(original)
            )
        assert np.mean(prds) < 0.35

    def test_float32_decoder_matches_float64(self, small_config, windows):
        encoder = CSEncoder(small_config)
        d64 = CSDecoder(small_config, codebook=encoder.codebook, precision="float64")
        d32 = CSDecoder(small_config, codebook=encoder.codebook, precision="float32")
        encoder.reset()
        packet = encoder.encode(windows[0])
        r64 = d64.decode(packet)
        r32 = d32.decode(packet)
        scale = np.linalg.norm(r64.samples_adu - 1024)
        gap = np.linalg.norm(r64.samples_adu - r32.samples_adu)
        assert gap / scale < 0.02


class TestSaturationAccounting:
    """Regression: rail-valued differences are representable symbols —
    only values *strictly* outside the rails count as saturated."""

    @pytest.fixture()
    def rail_setup(self):
        from collections import Counter

        from repro.config import SystemConfig

        # d=1 makes the measurement directly controllable: each sample
        # column feeds exactly one measurement row
        config = SystemConfig(n=64, m=16, d=1, levels=3)
        encoder = CSEncoder(config)
        rows = encoder.matrix.rows_per_column[:, 0]
        row, count = Counter(rows.tolist()).most_common(1)[0]
        assert count >= 4
        columns = np.flatnonzero(rows == row)[:4]
        base = 1 << (config.adc_bits - 1)
        return encoder, columns, base

    def test_rail_exact_diff_not_counted(self, rail_setup):
        encoder, columns, base = rail_setup
        flat = np.full(encoder.config.n, base, dtype=np.int64)
        jump = flat.copy()
        # 4 columns at +1020 centered: the target row's quantized diff
        # is exactly 4080/16 = 255 — the positive rail, representable
        jump[columns] = base + 1020
        encoder.encode(flat)  # keyframe
        encoder.encode(jump)  # rail-exact difference
        assert encoder.stats.total_symbols == encoder.config.m
        assert encoder.stats.saturated_symbols == 0
        assert encoder.stats.saturation_fraction == 0.0

    def test_true_clipping_still_counted(self, rail_setup):
        encoder, columns, base = rail_setup
        flat = np.full(encoder.config.n, base, dtype=np.int64)
        up = flat.copy()
        up[columns] = base + 1020
        down = flat.copy()
        down[columns] = base - 1020
        encoder.encode(flat)  # keyframe
        encoder.encode(up)    # +255, exactly at the rail
        encoder.encode(down)  # raw diff -510 < -256: genuinely clipped
        assert encoder.stats.saturated_symbols == 1
        assert encoder.stats.saturation_fraction == pytest.approx(
            1 / (2 * encoder.config.m)
        )


class TestEncodeBatch:
    def test_bit_exact_vs_serial(self, small_config, windows):
        serial = CSEncoder(small_config)
        batched = CSEncoder(small_config)
        block = np.stack(windows[:6])
        serial_packets = [serial.encode(w) for w in block]
        batched_packets = batched.encode_batch(block)
        assert len(serial_packets) == len(batched_packets)
        for p_serial, p_batched in zip(serial_packets, batched_packets):
            assert p_serial.to_bytes() == p_batched.to_bytes()
        assert serial.stats.per_packet_bits == batched.stats.per_packet_bits
        assert serial.stats.saturated_symbols == batched.stats.saturated_symbols
        assert serial.stats.total_symbols == batched.stats.total_symbols
        assert serial.stats.keyframes == batched.stats.keyframes

    def test_measure_batch_matches_measure(self, small_config, windows):
        encoder = CSEncoder(small_config)
        block = np.stack(windows[:4])
        batch = encoder.measure_batch(block)
        for index in range(block.shape[0]):
            np.testing.assert_array_equal(
                batch[index], encoder.measure(block[index])
            )

    def test_measure_batch_validates_shape(self, small_config):
        encoder = CSEncoder(small_config)
        with pytest.raises(ValueError):
            encoder.measure_batch(np.zeros((2, 3), dtype=np.int64))
