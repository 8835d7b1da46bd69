"""Telemetry sinks: ring-file persistence and the scrape round-trip."""

from __future__ import annotations

import asyncio

from telemetry_oracle import (
    exposition_matches_snapshot,
    last_ring_snapshot,
    parse_prometheus,
    ring_records,
)

from repro.experiments import render_table
from repro.telemetry import (
    JsonlRingSink,
    MetricsRegistry,
    MetricsServer,
    MetricsSnapshot,
    render_prometheus,
    render_snapshot_table,
    scrape_local,
)


def _busy_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("ingest_windows_decoded", 7, stream="100:0")
    registry.inc("ingest_windows_decoded", 3, stream="119:0")
    registry.inc("ingest_flushes", 2, reason="full")
    registry.set_gauge("federation_gateways", 4)
    for value in (0.01, 0.02, 0.3, 1.4):
        registry.observe("ingest_window_latency_seconds", value)
    return registry


class TestJsonlRing:
    def test_replay_restores_final_snapshot(self, tmp_path):
        registry = _busy_registry()
        sink = JsonlRingSink(tmp_path / "metrics.jsonl", max_records=8)
        sink.append(registry.snapshot())
        registry.inc("ingest_windows_decoded", 5, stream="100:0")
        final = registry.snapshot()
        sink.append(final)
        assert last_ring_snapshot(sink.path) == final

    def test_ring_stays_bounded_and_keeps_newest(self, tmp_path):
        registry = MetricsRegistry()
        sink = JsonlRingSink(tmp_path / "metrics.jsonl", max_records=4)
        for index in range(20):
            registry.inc("ticks")
            sink.append(registry.snapshot(), timestamp=float(index))
        records = ring_records(sink.path)
        assert len(records) <= 2 * sink.max_records
        # newest record survived compaction and replays exactly
        assert records[-1]["unix_time"] == 19.0
        assert last_ring_snapshot(sink.path) == registry.snapshot()

    def test_reopened_sink_continues_counting(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        first = JsonlRingSink(path, max_records=2)
        for _ in range(3):
            first.append(MetricsSnapshot.empty())
        again = JsonlRingSink(path, max_records=2)
        for _ in range(3):
            again.append(MetricsSnapshot.empty())
        assert len(ring_records(path)) <= 4


class TestPrometheusExposition:
    def test_round_trip_recovers_every_sample(self):
        snap = _busy_registry().snapshot()
        text = render_prometheus(snap)
        assert exposition_matches_snapshot(text, snap)
        samples = parse_prometheus(text)
        assert samples[
            ("ingest_windows_decoded", (("stream", "100:0"),))
        ] == 7.0
        assert samples[("federation_gateways", ())] == 4.0

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.003, buckets=(0.001, 0.01, 1.0))
        registry.observe("lat", 0.5, buckets=(0.001, 0.01, 1.0))
        samples = parse_prometheus(render_prometheus(registry.snapshot()))
        assert samples[("lat_bucket", (("le", "0.001"),))] == 0.0
        assert samples[("lat_bucket", (("le", "0.01"),))] == 1.0
        assert samples[("lat_bucket", (("le", "1"),))] == 2.0
        assert samples[("lat_bucket", (("le", "+Inf"),))] == 2.0
        assert samples[("lat_count", ())] == 2.0

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.inc("odd", stream='rec"with\\quotes')
        snap = registry.snapshot()
        assert exposition_matches_snapshot(render_prometheus(snap), snap)

    def test_type_headers_present(self):
        text = render_prometheus(_busy_registry().snapshot())
        assert "# TYPE ingest_windows_decoded counter" in text
        assert "# TYPE federation_gateways gauge" in text
        assert "# TYPE ingest_window_latency_seconds histogram" in text

    def test_mismatch_detected(self):
        snap = _busy_registry().snapshot()
        other = MetricsRegistry()
        other.inc("ingest_windows_decoded", 1, stream="100:0")
        assert not exposition_matches_snapshot(
            render_prometheus(other.snapshot()), snap
        )


class TestMetricsServer:
    def test_http_scrape_serves_current_registry(self):
        async def scenario():
            registry = _busy_registry()
            server = MetricsServer(registry)
            port = await server.start("127.0.0.1", 0)
            before = await scrape_local(port)
            registry.inc("ingest_windows_decoded", 1, stream="100:0")
            after = await scrape_local(port)
            await server.close()
            return registry.snapshot(), before, after

        final, before, after = asyncio.run(scenario())
        assert not exposition_matches_snapshot(before, final)
        assert exposition_matches_snapshot(after, final)

    def test_close_does_not_null_a_concurrent_restart(self):
        """close() swaps the listener out *before* awaiting
        wait_closed(); a start() that lands during that await must not
        have its fresh listener nulled by close()'s tail."""

        async def scenario():
            server = MetricsServer(_busy_registry())
            fresh = object()

            class OldListener:
                def close(self):
                    pass

                async def wait_closed(self):
                    # a concurrent start() lands while the old
                    # listener drains
                    server._server = fresh

            server._server = OldListener()
            await server.close()
            return server._server is fresh

        assert asyncio.run(scenario())

    def test_callable_source(self):
        async def scenario():
            snap = _busy_registry().snapshot()
            server = MetricsServer(lambda: snap)
            port = await server.start()
            text = await scrape_local(port)
            await server.close()
            return snap, text

        snap, text = asyncio.run(scenario())
        assert exposition_matches_snapshot(text, snap)


class TestViews:
    def test_result_table_renders_none_as_na_once(self):
        text = render_table(
            [{"stream": 0, "max_latency_ms": None, "prd": 1.25}],
            title="t",
        )
        assert "n/a" in text
        assert "None" not in text

    def test_snapshot_table_lists_all_kinds(self):
        snap = _busy_registry().snapshot()
        text = render_snapshot_table(snap, title="plane")
        assert "ingest_windows_decoded" in text
        assert "federation_gateways" in text
        assert "ingest_window_latency_seconds" in text
        assert "stream=100:0" in text

    def test_empty_snapshot_table(self):
        text = render_snapshot_table(MetricsSnapshot.empty(), title="plane")
        assert "no telemetry" in text
