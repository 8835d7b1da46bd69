"""Cross-module integration tests at the paper's full operating point."""

from __future__ import annotations

import numpy as np
import pytest

from repro import EcgMonitorSystem, SystemConfig, SyntheticMitBih
from repro.core import EncodedPacket
from repro.ecg.qrs import beat_match_rate, detect_qrs
from repro.ecg.resample import resample_record


@pytest.fixture(scope="module")
def paper_system():
    return EcgMonitorSystem(SystemConfig())


@pytest.fixture(scope="module")
def long_record():
    return SyntheticMitBih(duration_s=40.0).load("100")


class TestFullOperatingPoint:
    def test_paper_point_quality(self, paper_system, long_record):
        """N=512, M=256, d=12: CR > 60 % with PRD in the usable range."""
        result = paper_system.stream(long_record, max_packets=8)
        assert result.compression_ratio_percent > 55.0
        assert result.mean_prd_percent < 25.0
        assert result.mean_snr_db > 12.0

    def test_iterations_within_realtime_budget(self, paper_system, long_record):
        """Every packet must fit the NEON decoder's 2000-iteration cap."""
        result = paper_system.stream(long_record, max_packets=8)
        assert max(p.iterations for p in result.packets) <= 2000

    def test_wire_roundtrip_bitexact_measurements(self, long_record):
        """Serialize every packet to bytes and decode from the wire."""
        config = SystemConfig()
        system = EcgMonitorSystem(config)
        record = resample_record(long_record, 256.0)
        samples = record.adc.digitize(record.channel(0))
        system.encoder.reset()
        system.decoder.reset()
        for index in range(4):
            window = samples[index * config.n : (index + 1) * config.n]
            packet = system.encoder.encode(window)
            wire = EncodedPacket.from_bytes(packet.to_bytes())
            decoded = system.decoder.decode(wire)
            assert decoded.sequence == index

    def test_diagnostic_beats_preserved(self, long_record):
        """Reconstruction keeps R peaks findable (clinical usefulness)."""
        config = SystemConfig()
        system = EcgMonitorSystem(config)
        system.calibrate(long_record)
        result = system.stream(long_record, max_packets=15, keep_signals=True)
        original_mv = (result.original_adu - 1024) / 204.8
        reconstructed_mv = (result.reconstructed_adu - 1024) / 204.8
        reference = detect_qrs(original_mv, 256.0)
        detected = detect_qrs(reconstructed_mv, 256.0)
        assert beat_match_rate(reference, detected, 256.0) > 0.95

    def test_quality_band_at_moderate_cr(self, long_record):
        """At CR ~50-65 % the reconstruction stays diagnostically usable."""
        system = EcgMonitorSystem(SystemConfig())
        system.calibrate(long_record)
        result = system.stream(long_record, max_packets=8)
        assert result.mean_prd_percent < 30.0


class TestAcrossRhythms:
    @pytest.mark.parametrize("name", ["102", "119", "201"])
    def test_various_rhythms_compress_and_decode(self, name):
        db = SyntheticMitBih(duration_s=24.0)
        system = EcgMonitorSystem(SystemConfig())
        record = db.load(name)
        system.calibrate(record)
        result = system.stream(record, max_packets=5)
        assert result.compression_ratio_percent > 40.0
        assert result.mean_snr_db > 5.0

    def test_second_channel_works(self, long_record):
        system = EcgMonitorSystem(SystemConfig())
        result = system.stream(long_record, channel=1, max_packets=4)
        assert result.num_packets == 4


class TestSeedConsistency:
    def test_encoder_decoder_share_matrix_via_seed(self, long_record):
        """Different seeds on the two sides must *fail* to reconstruct."""
        config = SystemConfig()
        good = EcgMonitorSystem(config)
        good_result = good.stream(long_record, max_packets=3)

        from repro.core import CSDecoder, CSEncoder

        encoder = CSEncoder(config)
        wrong = CSDecoder(config.replace(seed=999), codebook=encoder.codebook)
        record = resample_record(long_record, 256.0)
        samples = record.adc.digitize(record.channel(0))
        packet = encoder.encode(samples[: config.n])
        decoded = wrong.decode(packet)
        original = samples[: config.n].astype(np.float64) - 1024
        bad_prd = (
            np.linalg.norm(original - (decoded.samples_adu - 1024))
            / np.linalg.norm(original)
            * 100.0
        )
        assert bad_prd > 2.0 * good_result.mean_prd_percent
