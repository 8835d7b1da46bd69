"""Adaptive batch control: the AIMD loop, the model, the gateway wiring."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import EcgMonitorSystem
from repro.errors import ConfigurationError
from repro.ingest import (
    AdaptiveBatchController,
    AdaptiveConfig,
    FixedBatchController,
    FrameKind,
    Handshake,
    IngestGateway,
    NodeClient,
    SolveTimeModel,
    encode_frame,
    encoded_packets,
    read_frame,
)
from repro.ingest.adaptive import MAX_BATCH_FACTOR, MIN_BATCH, SHED_FRACTION
from repro.telemetry import MetricsRegistry


class TestSolveTimeModel:
    def test_recovers_affine_cost(self):
        model = SolveTimeModel()
        for width in (2, 4, 8, 16, 8, 4):
            model.observe(width, 0.05 + 0.01 * width)
        overhead, per_window = model.parameters()
        assert overhead == pytest.approx(0.05, rel=1e-6)
        assert per_window == pytest.approx(0.01, rel=1e-6)
        assert model.predict(32) == pytest.approx(0.37, rel=1e-6)

    def test_single_width_degenerates_to_rate(self):
        model = SolveTimeModel()
        model.observe(4, 0.2)
        model.observe(4, 0.2)
        overhead, per_window = model.parameters()
        assert overhead == 0.0
        assert per_window == pytest.approx(0.05)

    def test_no_data_predicts_zero(self):
        model = SolveTimeModel()
        assert model.parameters() == (0.0, 0.0)
        assert model.predict(64) == 0.0
        assert model.sample_count == 0

    def test_negative_fit_clamped(self):
        model = SolveTimeModel()
        # pathological samples that would fit a negative slope
        model.observe(2, 0.5)
        model.observe(16, 0.1)
        overhead, per_window = model.parameters()
        assert overhead >= 0.0 and per_window >= 0.0


class TestControllerAimd:
    def _controller(self, **overrides) -> AdaptiveBatchController:
        config = AdaptiveConfig(budget_s=2.0, **overrides)
        return AdaptiveBatchController(16, 0.25, config=config)

    def test_holds_base_point_without_signals(self):
        """The steady-state contract: no backlog + no threat => the
        configured operating point, flush after flush."""
        controller = self._controller()
        for _ in range(50):
            controller.record_latency(0.1)
            controller.observe_flush(3, 0.05, backlog=0, reason="deadline")
        assert controller.at_base_point
        assert controller.widen_count == 0
        assert controller.shed_count == 0

    def test_widens_under_backlog_with_headroom(self):
        controller = self._controller()
        controller.record_latency(0.1)
        controller.observe_flush(16, 0.1, backlog=200, reason="full")
        assert controller.effective_batch == 32  # deep backlog doubles
        controller.observe_flush(32, 0.2, backlog=40, reason="full")
        assert controller.effective_batch == 36  # shallow backlog adds
        assert controller.widen_count == 2
        assert controller.effective_batch <= controller.max_batch

    def test_widening_caps_at_max_batch(self):
        controller = self._controller()
        for _ in range(10):
            controller.observe_flush(16, 0.05, backlog=5000, reason="full")
        assert controller.effective_batch == 16 * MAX_BATCH_FACTOR

    def test_sheds_multiplicatively_when_budget_threatened(self):
        controller = self._controller()
        # one solve consumed 90% of the 2 s budget: the width is
        # head-of-line blocking everything behind it
        controller.observe_flush(16, 1.8, backlog=100, reason="full")
        assert controller.effective_batch == 8
        assert controller.effective_flush_s == pytest.approx(0.125)
        assert controller.shed_count == 1

    def test_routine_pressure_flush_does_not_shed(self):
        """A pressure flush is the timing mechanism working — only a
        budget-eating solve indicts the width itself."""
        controller = self._controller()
        controller.observe_flush(6, 0.2, backlog=0, reason="pressure")
        assert controller.effective_batch == 16
        assert controller.shed_count == 0

    def test_shed_floors(self):
        controller = self._controller()
        for _ in range(30):
            controller.observe_flush(4, 1.9, backlog=0, reason="full")
        assert controller.effective_batch >= MIN_BATCH
        assert controller.effective_flush_s >= controller.min_flush_s

    def test_recovery_returns_flush_deadline_to_base_only(self):
        controller = self._controller()
        controller.observe_flush(16, 1.9, backlog=0, reason="full")
        tightened = controller.effective_flush_s
        assert tightened < 0.25
        for _ in range(20):
            controller.record_latency(0.05)
            controller.observe_flush(2, 0.05, backlog=0, reason="deadline")
        assert controller.effective_flush_s == pytest.approx(0.25)

    def test_pressure_due_time_uses_model(self):
        controller = self._controller(safety_s=0.1)
        # cold start: no model, no pressure trigger
        assert controller.pressure_due_at(100.0, 50) == float("inf")
        controller.record_latency(0.1)
        controller.observe_flush(10, 1.0, backlog=0, reason="full")
        # model: 0.1 s/window -> 16-wide solve predicted 1.6 s; a
        # window submitted at t=100 must flush by 100 + 2.0 - 0.1 - 1.6
        due = controller.pressure_due_at(100.0, 50)
        assert due == pytest.approx(100.0 + 2.0 - 0.1 - 1.6, rel=1e-6)

    def test_pressure_skips_hopeless_windows(self):
        """When no flush width could land inside the budget the
        pressure rule stands down (full/deadline triggers own the
        backlog) instead of thrashing the operating point."""
        controller = self._controller(safety_s=0.1)
        controller.observe_flush(10, 3.0, backlog=0, reason="full")
        # predicted 16-wide solve is 4.8 s > the whole 2 s budget
        assert controller.pressure_due_at(100.0, 50) == float("inf")

    def test_latency_percentile_interpolates(self):
        controller = self._controller()
        for value in (0.1, 0.2, 0.3, 0.4):
            controller.record_latency(value)
        assert 0.3 <= controller.latency_percentile() <= 0.4
        assert AdaptiveBatchController(4, 0.1).latency_percentile() == 0.0

    def test_widen_capped_by_headroom_model(self):
        """The widen gate admits only widths whose predicted solve
        fits the headroom — the loop converges instead of overshooting
        into budget-eating solves."""
        controller = self._controller(headroom_fraction=0.5)
        # 50 ms/window learned from two flushes
        controller.observe_flush(4, 0.2, backlog=0, reason="deadline")
        controller.observe_flush(8, 0.4, backlog=0, reason="deadline")
        cap = controller._headroom_cap()
        assert cap == 20  # (0.5 * 2.0 s) / 0.05 s-per-window
        for _ in range(10):
            controller.observe_flush(
                controller.effective_batch,
                0.05 * controller.effective_batch,
                backlog=1000,
                reason="full",
            )
        assert controller.effective_batch == cap

    def test_publishes_state_to_telemetry(self):
        registry = MetricsRegistry()
        controller = AdaptiveBatchController(
            8, 0.2, meter=registry.meter()
        )
        controller.observe_flush(8, 0.05, backlog=100, reason="full")
        snap = registry.snapshot()
        assert snap.gauge_value("ingest_effective_batch") == 16
        assert snap.counter_total("ingest_controller_widen") == 1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(budget_s=0)
        with pytest.raises(ConfigurationError):
            # widening up to the shed threshold would shed what it widened
            AdaptiveConfig(headroom_fraction=SHED_FRACTION)
        with pytest.raises(ConfigurationError):
            AdaptiveBatchController(0, 0.25)
        with pytest.raises(ConfigurationError):
            AdaptiveBatchController(4, 0.0)

    def test_fixed_controller_never_moves(self):
        controller = FixedBatchController(16, 0.25)
        controller.record_latency(5.0)
        controller.observe_flush(16, 9.0, backlog=1000, reason="full")
        assert controller.effective_batch == 16
        assert controller.effective_flush_s == 0.25
        assert controller.pressure_due_at(0.0, 1000) == float("inf")
        assert controller.at_base_point


def _system(config, record):
    system = EcgMonitorSystem(config)
    system.calibrate(record)
    return system


async def _run_clients_open(gateway, clients):
    """Run clients to completion; the gateway stays open."""
    already = len(gateway.results)
    links = [gateway.connect_local() for _ in clients]
    reports = await asyncio.gather(
        *[
            client.run(reader, writer)
            for client, (reader, writer) in zip(clients, links)
        ]
    )
    while len(gateway.results) < already + len(clients):
        await asyncio.sleep(0.005)
    return reports


async def _run_clients(gateway, clients):
    reports = await _run_clients_open(gateway, clients)
    await gateway.close()
    return reports


async def _run_acked_rounds(gateway, systems, records, windows):
    """Drive the links by hand: one window per stream per round, the
    next round (and finally the BYEs) sent only once the previous one
    is acked.  Both windows of a round are pooled before the drain
    loop next runs, so every batch leaves on the flush deadline with
    one member per stream — no PACKET-vs-BYE arrival race between two
    wall-clock-paced clients decides a composition."""
    links = [gateway.connect_local() for _ in systems]
    packets = []
    for (_reader, writer), system, record in zip(links, systems, records):
        writer.write(
            Handshake(
                record=record.name,
                channel=0,
                config=system.config,
                codebook=system.encoder.codebook,
            ).to_frame()
        )
        packets.append(encoded_packets(system, record, max_packets=windows))

    async def expect(reader, kind):
        frame = await asyncio.wait_for(read_frame(reader), timeout=60.0)
        assert frame is not None and frame[0] is kind, frame

    for reader, _writer in links:
        await expect(reader, FrameKind.WELCOME)
    for window in range(windows):
        for (_reader, writer), stream_packets in zip(links, packets):
            writer.write(
                encode_frame(
                    FrameKind.PACKET, stream_packets[window].to_bytes()
                )
            )
        for reader, _writer in links:
            await expect(reader, FrameKind.DECODED)
    for _reader, writer in links:
        writer.write(encode_frame(FrameKind.BYE))
    while len(gateway.results) < len(links):
        await asyncio.sleep(0.005)
    await gateway.close()


class TestAdaptiveGateway:
    def test_steady_state_schedule_identical_to_fixed(
        self, small_config, database
    ):
        """The bit-identity precondition: on a paced, unthreatened
        workload the adaptive gateway's batch compositions equal the
        fixed gateway's, flush for flush."""
        records = [database.load("100"), database.load("119")]
        systems = [_system(small_config, record) for record in records]

        def run(adaptive: bool):
            gateway = IngestGateway(
                batch_size=8, flush_ms=120.0, adaptive=adaptive
            )
            asyncio.run(_run_acked_rounds(gateway, systems, records, 3))
            return gateway

        fixed = run(adaptive=False)
        adaptive = run(adaptive=True)
        assert adaptive.controller.at_base_point
        assert adaptive.controller.widen_count == 0
        assert adaptive.controller.shed_count == 0
        assert [
            (members, reason)
            for _key, members, reason in adaptive.batch_log
        ] == [
            (members, reason) for _key, members, reason in fixed.batch_log
        ]
        assert [
            (members, reason) for _key, members, reason in fixed.batch_log
        ] == [([(0, w), (1, w)], "deadline") for w in range(3)]
        fixed_by_record = {r.record: r for r in fixed.results}
        for result in adaptive.results:
            reference = fixed_by_record[result.record]
            assert result.iterations == reference.iterations
            for ours, theirs in zip(
                result.samples_adu, reference.samples_adu
            ):
                np.testing.assert_array_equal(ours, theirs)

    def test_burst_widens_batches_beyond_base(
        self, small_config, database
    ):
        """An all-at-once backlog makes the controller widen past the
        configured width (the fixed gateway cannot)."""
        record = database.load("100")
        system = _system(small_config, record)

        gateway = IngestGateway(
            batch_size=2,
            flush_ms=120.0,
            adaptive=True,
            max_pending=256,
        )
        client = NodeClient(system, record, max_packets=8, interval_s=0.0)
        asyncio.run(_run_clients(gateway, [client]))
        assert gateway.stats.windows_decoded == 8
        assert gateway.controller.widen_count >= 1
        widest = max(
            len(members) for _k, members, _r in gateway.batch_log
        )
        assert widest > 2

    def test_pressure_flush_fires_when_budget_tight(
        self, small_config, database
    ):
        """With an artificially tiny budget the pressure rule must
        flush ahead of a long idle deadline."""
        record = database.load("100")
        system = _system(small_config, record)
        config = AdaptiveConfig(budget_s=0.25, safety_s=0.02)

        gateway = IngestGateway(
            batch_size=64,
            flush_ms=5000.0,  # deadline alone would blow the budget
            adaptive=True,
            adaptive_config=config,
        )

        async def scenario():
            # first stream seeds the solve-time model (its windows
            # flush on stream-end drain — the cold start has no model)
            seeder = NodeClient(
                system, record, max_packets=4, interval_s=0.0
            )
            await _run_clients_open(gateway, [seeder])
            # second stream trickles: with the model warm, waiting for
            # the 5 s deadline would blow the 0.25 s budget, so its
            # windows must leave on pressure flushes
            paced = NodeClient(
                system, record, max_packets=4, interval_s=0.4
            )
            reports = await _run_clients_open(gateway, [paced])
            await gateway.close()
            return reports

        asyncio.run(scenario())
        assert gateway.stats.windows_decoded == 8
        assert gateway.stats.flushes_pressure >= 1
        assert gateway.stats.max_latency_s < 5.0
