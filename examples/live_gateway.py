"""Live gateway walkthrough: three wearable nodes, one coordinator.

Spins up the asyncio ingestion gateway on a real TCP port, connects
three simulated node clients that replay synthetic MIT-BIH records at
an accelerated sample rate, and prints what the coordinator saw: pooled
batch composition, per-stream decode latency, and a check that the
live reconstruction matches the offline serial decoder.  The check
fails the script (non-zero exit) when a record's iteration counts
differ from the serial decoder's or its samples drift past
``MAX_DRIFT_ADU``.

This is the paper's deployment loop end to end — encoder on the node,
length-prefixed packet frames on the wire, operator-keyed batched
FISTA at the coordinator — in one self-contained script.

Usage::

    python examples/live_gateway.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import EcgMonitorSystem, SyntheticMitBih, SystemConfig
from repro.ingest import IngestGateway, NodeClient
from repro.telemetry import (
    MetricsRegistry,
    MetricsServer,
    render_snapshot_table,
    scrape_local,
)

from _common import banner

#: windows each node streams (2 s of signal per window)
WINDOWS = 4
#: pacing between a node's packets — 4x faster than the true 2 s rate
#: so the demo finishes quickly; pass None for true real time
INTERVAL_S = 0.5
#: the live-vs-serial bound on max |live - serial|, in adu: the pooled
#: batched solve and the serial solve differ only by BLAS rounding
#: (~1e-11 adu measured), and one ADC code is 1 adu
MAX_DRIFT_ADU = 1e-6


async def main() -> list[str]:
    """Run the demo; the records whose live output left the serial
    decoder's (an empty list when the check passed)."""
    banner("live CS-ECG ingestion: 3 nodes -> 1 gateway (TCP)")

    # Every node ships the paper's shared fixed sensing matrix (same
    # seed), so the gateway pools all three streams into one operator
    # group and batches fill across them.
    config = SystemConfig().with_target_cr(50.0)
    database = SyntheticMitBih(duration_s=WINDOWS * config.packet_seconds + 4.0)
    nodes = []
    for name in ("100", "119", "231"):
        record = database.load(name)
        system = EcgMonitorSystem(config)
        system.calibrate(record)  # per-node Huffman codebook
        nodes.append(
            NodeClient(
                system,
                record,
                max_packets=WINDOWS,
                interval_s=INTERVAL_S,
            )
        )

    # one registry is the telemetry plane for the whole run: the
    # gateway publishes sessions/flushes/latencies into it, and the
    # scrape endpoint serves it in the Prometheus text format
    registry = MetricsRegistry()
    gateway = IngestGateway(batch_size=4, flush_ms=300.0, telemetry=registry)
    port = await gateway.start("127.0.0.1", 0)
    metrics = MetricsServer(registry)
    metrics_port = await metrics.start("127.0.0.1", 0)
    print(f"gateway listening on 127.0.0.1:{port} "
          f"(batch 4, flush 300 ms, in-process solves)")
    print(f"metrics exposition on http://127.0.0.1:{metrics_port}/metrics")

    reports = await asyncio.gather(
        *[node.run_tcp("127.0.0.1", port) for node in nodes]
    )
    # TCP handler tasks finalize results just after the clients return
    while len(gateway.results) < len(nodes):
        await asyncio.sleep(0.01)
    scraped = await scrape_local(metrics_port)
    await metrics.close()
    await gateway.close()

    banner("what each node observed")
    for report in reports:
        latencies = ", ".join(
            f"{latency:.0f}" for latency in report.gateway_latencies_ms
        )
        print(
            f"record {report.record}: {report.acked}/{report.sent} windows "
            f"decoded, per-window latency [{latencies}] ms"
        )

    banner("what the coordinator did")
    stats = gateway.stats
    print(f"pooled batches:        {stats.batches} "
          f"({stats.cross_stream_batches} spanning streams)")
    print(f"flush triggers:        {stats.flushes_full} full, "
          f"{stats.flushes_deadline} deadline, {stats.flushes_drain} drain, "
          f"{stats.flushes_idle} idle")
    worst = (
        "n/a (no window decoded)"
        if stats.max_latency_s is None
        else f"{1000 * stats.max_latency_s:.0f} ms"
    )
    print(f"worst decode latency:  {worst} "
          f"(real-time budget: {1000 * config.packet_seconds:.0f} ms)")
    for key, members, reason in gateway.batch_log:
        streams = ", ".join(f"s{sid}w{idx}" for sid, idx in members)
        print(f"  batch[{reason:>8}]: {streams}")

    banner("the telemetry plane (one registry, every surface)")
    print(
        render_snapshot_table(
            registry.snapshot(),
            title="ingest metrics (counters, gauges, histograms)",
            prefix="ingest_",
        )
    )
    scrape_lines = [
        line for line in scraped.splitlines()
        if line.startswith("ingest_windows_decoded")
    ]
    print("as scraped over HTTP:")
    for line in scrape_lines:
        print(f"  {line}")

    banner("live output vs offline serial decoder")
    # session ids follow TCP accept order, which need not match the
    # node list order — pair by record name (unique in this demo)
    by_record = {result.record: result for result in gateway.results}
    diverged = []
    for node in nodes:
        # ordered(): windows in stream order even if pooled batches
        # completed out of order on a process pool
        result = by_record[node.record.name].ordered()
        reference = EcgMonitorSystem(node.system.config)
        reference.encoder.codebook = node.system.encoder.codebook
        reference.decoder.codebook = node.system.encoder.codebook
        serial = reference.stream(node.record, max_packets=WINDOWS,
                                  keep_signals=True)
        live = np.concatenate(result.samples_adu)
        drift = float(np.max(np.abs(live - serial.reconstructed_adu)))
        same_iters = result.iterations == [
            p.iterations for p in serial.packets
        ]
        print(
            f"record {result.record}: iterations identical: {same_iters}, "
            f"max |live - serial| = {drift:.2e} adu"
        )
        if not (same_iters and drift <= MAX_DRIFT_ADU):
            diverged.append(result.record)
    return diverged


if __name__ == "__main__":
    diverged = asyncio.run(main())
    if diverged:
        raise SystemExit(
            f"live output left the serial decoder on records {diverged} "
            f"(iterations differ or drift > {MAX_DRIFT_ADU} adu)"
        )
