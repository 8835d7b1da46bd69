"""Serial-vs-batched equivalence for the batched decode engine.

The serial path is the reference implementation; these tests pin the
batched engine to it: bit-identical packets (the encoder stages are
integer-exact) and reconstructions/PRDs matching to solver
floating-point noise, across several records and a 2-lead stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EcgMonitorSystem, MultiChannelMonitor
from repro.core.batch import window_record

#: three rhythm-diverse records from the synthetic corpus
EQUIVALENCE_RECORDS = ("100", "119", "201")


def _stream_pair(config, record, batch_size, max_packets=6, **kwargs):
    """Stream the same record serially and batched on fresh systems."""
    serial_system = EcgMonitorSystem(config)
    batched_system = EcgMonitorSystem(config)
    serial = serial_system.stream(record, max_packets=max_packets, **kwargs)
    batched = batched_system.stream(
        record, max_packets=max_packets, batch_size=batch_size, **kwargs
    )
    return serial_system, batched_system, serial, batched


class TestWindowRecord:
    def test_shapes_and_truncation(self):
        samples = np.arange(10)
        windows = window_record(samples, 4)
        assert windows.shape == (2, 4)
        np.testing.assert_array_equal(windows[1], [4, 5, 6, 7])

    def test_max_windows(self):
        windows = window_record(np.arange(32), 4, max_windows=3)
        assert windows.shape == (3, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            window_record(np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            window_record(np.zeros(8), 0)


class TestStreamEquivalence:
    @pytest.mark.parametrize("name", EQUIVALENCE_RECORDS)
    def test_bit_exact_packets_and_prd(self, small_config, database, name):
        """Same packets bit for bit, same PRD to 1e-9, per record."""
        record = database.load(name)
        serial_system, batched_system, serial, batched = _stream_pair(
            small_config, record, batch_size=3
        )
        assert serial.num_packets == batched.num_packets
        # encoder stages are integer-exact: identical on-air bits
        assert (
            serial_system.encoder.stats.per_packet_bits
            == batched_system.encoder.stats.per_packet_bits
        )
        assert (
            serial_system.encoder.stats.saturated_symbols
            == batched_system.encoder.stats.saturated_symbols
        )
        for p_serial, p_batched in zip(serial.packets, batched.packets):
            assert p_serial.sequence == p_batched.sequence
            assert p_serial.is_keyframe == p_batched.is_keyframe
            assert p_serial.packet_bits == p_batched.packet_bits
            assert p_serial.iterations == p_batched.iterations
            assert p_serial.prd_percent == pytest.approx(
                p_batched.prd_percent, abs=1e-9
            )

    def test_reconstruction_matches(self, small_config, database):
        record = database.load("100")
        _, _, serial, batched = _stream_pair(
            small_config, record, batch_size=4, keep_signals=True
        )
        np.testing.assert_array_equal(
            serial.original_adu, batched.original_adu
        )
        np.testing.assert_allclose(
            serial.reconstructed_adu, batched.reconstructed_adu, atol=1e-7
        )

    def test_partial_final_chunk(self, small_config, database):
        """A batch size that does not divide the packet count."""
        record = database.load("100")
        _, _, serial, batched = _stream_pair(
            small_config, record, batch_size=4, max_packets=6
        )
        assert batched.num_packets == 6
        iterations_serial = [p.iterations for p in serial.packets]
        iterations_batched = [p.iterations for p in batched.packets]
        assert iterations_serial == iterations_batched

    def test_batch_size_one_is_serial_path(self, small_config, database):
        record = database.load("100")
        system = EcgMonitorSystem(small_config)
        result = system.stream(record, max_packets=2, batch_size=1)
        assert result.num_packets == 2

    def test_invalid_batch_size(self, small_config, database):
        system = EcgMonitorSystem(small_config)
        with pytest.raises(ValueError):
            system.stream(database.load("100"), batch_size=0)

    def test_too_short_record_rejected(self, small_config):
        from repro.ecg import SyntheticMitBih

        tiny = SyntheticMitBih(duration_s=0.5).load("100")
        system = EcgMonitorSystem(small_config)
        with pytest.raises(ValueError, match="record too short"):
            system.stream(tiny, batch_size=4)

    def test_max_packets_zero_names_actual_cause(
        self, small_config, database
    ):
        """A long-enough record with max_packets=0 must not claim the
        record is too short — the old message misnamed the cause."""
        system = EcgMonitorSystem(small_config)
        with pytest.raises(ValueError, match="max_packets=0") as excinfo:
            system.stream(database.load("100"), max_packets=0, batch_size=4)
        assert "record too short" not in str(excinfo.value)

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_negative_max_packets_rejected(
        self, small_config, database, batch_size
    ):
        """max_packets=-1 must raise, not silently truncate (batched)
        or return an empty stream (serial)."""
        system = EcgMonitorSystem(small_config)
        with pytest.raises(ValueError, match="max_packets=-1"):
            system.stream(
                database.load("100"), max_packets=-1, batch_size=batch_size
            )

    def test_calibrated_system_equivalence(self, small_config, database):
        """Equivalence must survive a trained codebook."""
        record = database.load("119")
        serial_system = EcgMonitorSystem(small_config)
        serial_system.calibrate(record)
        batched_system = EcgMonitorSystem(small_config)
        batched_system.calibrate(record)
        serial = serial_system.stream(record, max_packets=5)
        batched = batched_system.stream(record, max_packets=5, batch_size=5)
        assert [p.packet_bits for p in serial.packets] == [
            p.packet_bits for p in batched.packets
        ]
        for p_serial, p_batched in zip(serial.packets, batched.packets):
            assert p_serial.prd_percent == pytest.approx(
                p_batched.prd_percent, abs=1e-9
            )


class TestTwoLeadHolterStream:
    def test_2lead_equivalence(self, small_config, database):
        """Both MIT-BIH leads, serial vs batched, same packets + PRD."""
        record = database.load("100")
        serial_monitor = MultiChannelMonitor(small_config, channels=2)
        batched_monitor = MultiChannelMonitor(small_config, channels=2)
        serial = serial_monitor.stream(record, max_packets=4)
        batched = batched_monitor.stream(record, max_packets=4, batch_size=4)
        assert serial.num_channels == batched.num_channels == 2
        assert serial.total_bits == batched.total_bits
        for lead_serial, lead_batched in zip(
            serial.per_channel, batched.per_channel
        ):
            for p_serial, p_batched in zip(
                lead_serial.packets, lead_batched.packets
            ):
                assert p_serial.packet_bits == p_batched.packet_bits
                assert p_serial.iterations == p_batched.iterations
                assert p_serial.prd_percent == pytest.approx(
                    p_batched.prd_percent, abs=1e-9
                )

class TestDecoderBatchApi:
    def test_decode_batch_empty(self, small_config):
        system = EcgMonitorSystem(small_config)
        assert system.decoder.decode_batch([]) == []
