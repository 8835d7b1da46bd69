"""Tests for the multi-lead monitor extension."""

from __future__ import annotations

import pytest

from repro.core import MultiChannelMonitor
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def monitor(small_config):
    return MultiChannelMonitor(small_config, channels=2)


class TestMultiChannel:
    def test_channel_count(self, monitor):
        assert monitor.num_channels == 2

    def test_invalid_channel_count(self, small_config):
        with pytest.raises(ConfigurationError):
            MultiChannelMonitor(small_config, channels=0)

    def test_per_lead_seeds_differ(self, monitor):
        matrices = [
            system.encoder.matrix.rows_per_column
            for system in monitor.systems
        ]
        assert not (matrices[0] == matrices[1]).all()

    def test_stream_both_leads(self, monitor, database):
        result = monitor.stream(database.load("100"), max_packets=3)
        assert len(result) == 2
        assert all(r.num_packets == 3 for r in result)

    def test_aggregate_metrics(self, monitor, database):
        """Each lead's result carries the metrics a caller aggregates
        into the combined stream's figures."""
        leads = monitor.stream(database.load("100"), max_packets=3)
        for lead in leads:
            assert 0.0 < lead.compression_ratio_percent < 100.0
            assert lead.mean_prd_percent > 0.0
            assert lead.mean_iterations > 0
        total_bits = sum(p.packet_bits for lead in leads for p in lead.packets)
        original_bits = sum(
            lead.config.original_packet_bits * lead.num_packets
            for lead in leads
        )
        assert 0 < total_bits < original_bits

    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_leads_come_back_in_lead_order(
        self, monitor, database, batch_size
    ):
        leads = monitor.stream(
            database.load("100"), max_packets=2, batch_size=batch_size
        )
        assert [lead.channel for lead in leads] == [0, 1]
        assert all(lead.record == "100" for lead in leads)

    def test_calibrate_trains_each_lead(self, small_config, database):
        monitor = MultiChannelMonitor(small_config, channels=2)
        record = database.load("106")
        monitor.calibrate(record)
        books = [system.encoder.codebook for system in monitor.systems]
        # per-lead training yields per-lead codebooks
        assert books[0] is not books[1]

    def test_record_with_too_few_channels_rejected(self, small_config):
        import numpy as np

        from repro.ecg.records import Record

        single = Record(
            name="mono",
            fs_hz=256.0,
            signals_mv=np.zeros((1, 2048)),
        )
        monitor = MultiChannelMonitor(small_config, channels=2)
        with pytest.raises(ConfigurationError):
            monitor.stream(single)

    def test_radio_rate_doubles_with_leads(self, small_config, database):
        record = database.load("100")
        mono = MultiChannelMonitor(small_config, channels=1)
        stereo = MultiChannelMonitor(small_config, channels=2)

        def radio_bits(leads):
            return sum(p.packet_bits for lead in leads for p in lead.packets)

        mono_bits = radio_bits(mono.stream(record, max_packets=3))
        stereo_bits = radio_bits(stereo.stream(record, max_packets=3))
        assert stereo_bits > 1.5 * mono_bits
