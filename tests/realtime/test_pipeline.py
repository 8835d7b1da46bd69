"""Tests for the end-to-end real-time pipeline simulation (Figure 8)."""

from __future__ import annotations

import pytest

from telemetry_oracle import gauge_value

from repro.config import SystemConfig
from repro.errors import RealTimeError
from repro.platforms.cortexa8 import DecodePipeline
from repro.realtime import MonitorPipeline, PipelineConfig, Processor


def _run(iterations=700, bits=3072, duration=120.0, **kwargs):
    config = PipelineConfig(
        system=SystemConfig(),
        packet_bits=[bits],
        packet_iterations=[iterations],
        duration_s=duration,
        **kwargs,
    )
    return MonitorPipeline(config).run()


class TestProcessor:
    def test_jobs_serialize(self):
        cpu = Processor("test")
        first = cpu.submit(0.0, 1.0)
        second = cpu.submit(0.5, 1.0)  # queued behind the first
        assert first == 1.0
        assert second == 2.0

    def test_idle_gap_not_counted_busy(self):
        cpu = Processor("test")
        cpu.submit(0.0, 1.0)
        cpu.submit(5.0, 1.0)
        assert cpu.busy_seconds == 2.0
        assert cpu.utilization(10.0) == pytest.approx(0.2)

    def test_overload_not_clamped(self):
        """Regression: utilization above 1.0 must be reported, not
        silently clamped — it is the CPU-overload signal."""
        cpu = Processor("test")
        for start in range(10):
            cpu.submit(float(start), 1.5)  # 15 s of work in 10 s
        assert cpu.utilization(10.0) == pytest.approx(1.5)

    def test_validation(self):
        cpu = Processor("test")
        with pytest.raises(RealTimeError):
            cpu.submit(0.0, -1.0)
        with pytest.raises(RealTimeError):
            cpu.utilization(0.0)


class TestPaperClaims:
    def test_node_cpu_below_5_percent(self):
        report = _run()
        assert report.node_cpu_percent < 5.0

    def test_phone_cpu_below_30_percent(self):
        report = _run()
        assert report.phone_cpu_percent < 30.0

    def test_realtime_at_cr50_operating_point(self):
        report = _run(iterations=700, bits=3072)
        assert report.is_realtime()
        assert report.underruns == 0
        assert report.overruns == 0
        assert report.decode_deadline_misses == 0

    def test_all_packets_decoded(self):
        report = _run(duration=60.0)
        assert report.packets_encoded == 30  # one per 2 s
        assert report.packets_decoded >= report.packets_encoded - 1

    def test_buffer_stays_within_6s(self):
        report = _run()
        assert report.buffer_max_s <= 6.0
        assert report.buffer_min_s >= 0.0

    def test_latency_includes_display_delay(self):
        """End-to-end latency is bounded by the 6 s buffer design."""
        report = _run()
        assert 0.0 < report.mean_end_to_end_latency_s < 6.0


class TestDegradedOperation:
    def test_scalar_pipeline_slower_but_may_hold(self):
        neon = _run(iterations=700, decode_pipeline=DecodePipeline.NEON_OPTIMIZED)
        scalar = _run(iterations=700, decode_pipeline=DecodePipeline.SCALAR_VFP)
        assert scalar.phone_decode_percent > 2.0 * neon.phone_decode_percent

    def test_scalar_pipeline_saturates_past_budget(self):
        """Without NEON, 1200 iterations already eat >70 % of the phone
        (the paper's 1 s/2 s budget reserves headroom for everything
        else), and past the full 2 s packet period decoding falls
        irrecoverably behind."""
        at_1200 = _run(
            iterations=1200, decode_pipeline=DecodePipeline.SCALAR_VFP
        )
        assert at_1200.phone_cpu_percent > 70.0
        at_1800 = _run(
            iterations=1800, decode_pipeline=DecodePipeline.SCALAR_VFP
        )
        assert at_1800.decode_deadline_misses > 0

    def test_neon_pipeline_holds_at_1500(self):
        report = _run(iterations=1500)
        assert report.decode_deadline_misses == 0

    def test_slow_radio_breaks_realtime(self):
        from repro.platforms.bluetooth import BluetoothLink

        config = PipelineConfig(
            system=SystemConfig(),
            packet_bits=[3072],
            packet_iterations=[700],
            duration_s=60.0,
        )
        slow = MonitorPipeline(
            config, radio=BluetoothLink(throughput_bps=1200.0)
        ).run()
        assert slow.decode_deadline_misses > 0

    def test_varying_iterations_cycle(self):
        config = PipelineConfig(
            system=SystemConfig(),
            packet_bits=[3072, 2800, 3100],
            packet_iterations=[650, 720, 900],
            duration_s=60.0,
        )
        report = MonitorPipeline(config).run()
        assert report.packets_decoded > 0


class TestOverloadAccounting:
    """Regressions for the CPU-overload reporting fixes."""

    def _overloaded(self):
        # scalar decode of 3000 iterations takes far longer than the
        # 2 s packet period: the phone CPU is handed more work than
        # wall-clock time
        return _run(
            iterations=3000,
            decode_pipeline=DecodePipeline.SCALAR_VFP,
            duration=60.0,
        )

    def test_overload_shows_above_100_percent(self):
        report = self._overloaded()
        assert report.phone_cpu_percent > 100.0
        assert report.decode_deadline_misses > 0

    def test_decode_share_never_negative(self):
        report = self._overloaded()
        assert report.phone_decode_percent >= 0.0
        # decode share is derived from busy time, not from the
        # (potentially clamped) total minus display percentages
        assert report.phone_decode_percent == pytest.approx(
            report.phone_cpu_percent - report.phone_display_percent,
            abs=1e-9,
        )

    def test_buffer_min_zero_when_display_never_starts(self):
        """Regression: if decoding is so slow the display threshold is
        never reached, buffer_min_s must report 0, not a full buffer."""
        report = _run(
            iterations=20000,
            decode_pipeline=DecodePipeline.SCALAR_VFP,
            duration=20.0,
        )
        assert report.phone_display_percent == 0.0
        assert report.buffer_min_s == 0.0


class TestConfigValidation:
    def test_empty_traces_rejected(self):
        with pytest.raises(RealTimeError):
            PipelineConfig(
                system=SystemConfig(),
                packet_bits=[],
                packet_iterations=[700],
            )

    def test_invalid_duration(self):
        with pytest.raises(RealTimeError):
            PipelineConfig(
                system=SystemConfig(),
                packet_bits=[100],
                packet_iterations=[700],
                duration_s=0.0,
            )

    def test_invalid_buffer(self):
        with pytest.raises(RealTimeError):
            PipelineConfig(
                system=SystemConfig(),
                packet_bits=[100],
                packet_iterations=[700],
                buffer_seconds=0.0,
            )


class TestPipelineTelemetry:
    """The realtime surface publishes through the telemetry plane."""

    def test_processor_meters_jobs(self):
        from repro.realtime.pipeline import Processor
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        cpu = Processor("phone", meter=registry.meter())
        cpu.submit(0.0, 0.25)
        cpu.submit(1.0, 0.5)
        snap = registry.snapshot()
        assert snap.counter_value("realtime_jobs", processor="phone") == 2
        assert snap.counter_value(
            "realtime_busy_seconds", processor="phone"
        ) == pytest.approx(0.75)
        # the attribute ledger (the report's source) agrees
        assert cpu.busy_seconds == pytest.approx(0.75)
        assert cpu.jobs == 2

    def test_pipeline_run_publishes_utilization(self, small_config):
        from repro.realtime.pipeline import MonitorPipeline, PipelineConfig
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        config = PipelineConfig(
            system=small_config,
            packet_bits=[1200],
            packet_iterations=[50],
            duration_s=20.0,
        )
        report = MonitorPipeline(config, telemetry=registry).run()
        snap = registry.snapshot()
        assert gauge_value(
            snap, "realtime_utilization_percent", processor="phone"
        ) == pytest.approx(report.phone_cpu_percent)
        assert gauge_value(
            snap, "realtime_utilization_percent", processor="node"
        ) == pytest.approx(report.node_cpu_percent)
        assert gauge_value(snap, "realtime_deadline_misses") == float(
            report.decode_deadline_misses
        )
        hist = snap.histogram_total("realtime_end_to_end_latency_seconds")
        assert hist.total == report.packets_decoded
