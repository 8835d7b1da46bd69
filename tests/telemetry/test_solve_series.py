"""The shared solve series: one fact, read from one place.

Every batched solve, live or offline, observes its width into
``fleet_solve_width`` labeled by the solving process.  That histogram is
the only record of solve counts and widths: its count is the number of
solves (per ``worker``: that process's tasks) and its sum the number of
windows they decoded (per ``worker``: that process's windows).  These
tests hold the series to the records it must agree with.
"""

from __future__ import annotations

import asyncio
import os

from telemetry_oracle import histogram

from repro.core import EcgMonitorSystem
from repro.fleet import FleetDecoder, StreamTask
from repro.ingest import IngestGateway, NodeClient


def _per_worker(snap, name):
    return {
        worker: histogram(snap, name, worker=worker)
        for worker in snap.label_values(name, "worker")
    }


class TestSharedSolveSeries:
    def test_clean_gateway_run(self, small_config, database):
        """Count = flushes = batch-log entries; sum = windows acked."""
        records = [database.load("100"), database.load("119")]

        async def run():
            gateway = IngestGateway(batch_size=2, flush_ms=60.0)
            clients = []
            for record in records:
                system = EcgMonitorSystem(small_config)
                system.calibrate(record)
                reader, writer = gateway.connect_local()
                client = NodeClient(
                    system, record, max_packets=5, interval_s=0.0
                )
                clients.append(client.run(reader, writer))
            await asyncio.wait_for(asyncio.gather(*clients), timeout=120.0)
            await gateway.close()
            return gateway

        gateway = asyncio.run(run())
        snap = gateway.telemetry.snapshot()
        widths = snap.histogram_total("fleet_solve_width")
        assert snap.counter_total("ingest_windows_decoded") == 10
        assert widths.total == snap.counter_total("ingest_flushes")
        assert widths.total == len(gateway.batch_log)
        assert widths.sum == snap.counter_total("ingest_windows_decoded")
        assert snap.histogram_total("fleet_solve_seconds").total == (
            widths.total
        )
        # the in-process solves all ran in this process
        assert set(_per_worker(snap, "fleet_solve_width")) == {
            str(os.getpid())
        }

    def test_fleet_decoder_run(self, small_config, database):
        """Count = tasks, sum = windows, overall and per ``worker``:
        2 streams x 10 windows of one group at batch 4 are 5 tasks,
        whichever processes solve them."""

        def tasks():
            return [
                StreamTask(
                    EcgMonitorSystem(small_config),
                    database.load(name),
                    max_packets=10,
                )
                for name in ("100", "119")
            ]

        for workers in (1, 2):
            decoder = FleetDecoder(batch_size=4, workers=workers)
            decoder.run(tasks())
            snap = decoder.telemetry.snapshot()
            widths = snap.histogram_total("fleet_solve_width")
            assert (widths.total, widths.sum) == (5, 20)
            per_worker = _per_worker(snap, "fleet_solve_width")
            seconds = _per_worker(snap, "fleet_solve_seconds")
            assert set(per_worker) == set(seconds)
            assert sum(h.total for h in per_worker.values()) == 5
            assert sum(h.sum for h in per_worker.values()) == 20
            for worker, hist in per_worker.items():
                assert seconds[worker].total == hist.total
            if decoder.last_effective_workers == 1:
                assert set(per_worker) == {str(os.getpid())}
            else:  # every solve ran in a pool worker, none in the parent
                assert str(os.getpid()) not in per_worker
                assert 1 <= len(per_worker) <= 2
