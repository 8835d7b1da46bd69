"""Federation walkthrough: two operator groups, two gateways, one kill.

Spins up a :class:`~repro.ingest.FederationFrontDoor` with two real
gateway worker processes behind a consistent-hash ring, streams four
simulated wearable nodes in two operator groups through it, then
kills the busier gateway mid-stream and watches the failover: the
victim nodes reconnect with backoff, the front door remaps only the
dead gateway's ring segment, the streams replay from their FEC
retransmit ring, and every window still decodes.

This is ``repro-ecg serve --gateways 2 --groups 2 --simulate 4 --fec``
as a self-contained script, plus a deliberate gateway murder the CLI
does not offer.

Usage::

    python examples/federation_demo.py
"""

from __future__ import annotations

import asyncio
import dataclasses
import warnings

from repro import EcgMonitorSystem, SyntheticMitBih, SystemConfig
from repro.core.decoder import operator_key
from repro.ingest import FederationFrontDoor, NodeClient, merge_stream_results

from _common import banner

#: windows each node streams (2 s of signal per window)
WINDOWS = 6
#: accelerated pacing so the demo finishes quickly
INTERVAL_S = 0.1
#: (record, operator group) per node: group g perturbs the config
#: seed, so each group has its own sensing matrix, its own operator
#: key, and therefore its own ring segment
NODES = (("100", 0), ("119", 0), ("201", 1), ("231", 1))


async def main() -> None:
    banner("federated CS-ECG ingestion: 4 nodes -> 2 gateway processes")

    base = SystemConfig().with_target_cr(50.0)
    database = SyntheticMitBih(
        duration_s=WINDOWS * base.packet_seconds + 4.0
    )
    clients = []
    for record_name, group in NODES:
        record = database.load(record_name)
        config = dataclasses.replace(base, seed=base.seed + group)
        system = EcgMonitorSystem(config)
        system.calibrate(record)
        clients.append(
            NodeClient(
                system,
                record,
                max_packets=WINDOWS,
                interval_s=INTERVAL_S,
                fec=True,          # retransmit ring: zero-loss failover
                reconnect=5,       # survive the gateway kill below
            )
        )

    front_door = FederationFrontDoor(gateways=2, batch_size=4, flush_ms=200.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        port = await front_door.start("127.0.0.1", 0)
        print(f"front door listening on 127.0.0.1:{port}")
        for worker in front_door._workers.values():
            mode = "thread (fallback)" if worker.in_process else "process"
            print(f"  {worker.gateway_id}: backend 127.0.0.1:{worker.port} [{mode}]")

        streams = [
            asyncio.ensure_future(client.run_tcp("127.0.0.1", port))
            for client in clients
        ]
        await asyncio.sleep(4 * INTERVAL_S)

        banner("routing (seeded ring: placement is reproducible)")
        for client, (_, group) in zip(clients, NODES):
            key = operator_key(
                client.system.config, client.system.decoder.precision
            )
            placement = front_door.ring.lookup(key)
            print(
                f"record {client.record.name} (group {group}) "
                f"-> {placement}"
            )

        victim = max(
            front_door._workers.values(),
            key=lambda worker: len(worker.sessions),
        )
        if victim.in_process:
            print("\n(thread fallback active: skipping the gateway kill)")
        else:
            banner(f"killing {victim.gateway_id} mid-stream")
            await front_door.kill_gateway(victim.gateway_id)
            print(
                f"{victim.gateway_id} is gone; its ring segment remaps "
                "to the survivor, its nodes reconnect and replay"
            )

        reports = await asyncio.gather(*streams)
        await front_door.close()
    for warning in caught:
        print(f"  [warning] {warning.message}")

    banner("what each node observed")
    for report in reports:
        status = "ok" if report.error is None else f"ERROR {report.error}"
        print(
            f"record {report.record}: {report.sent} sent, "
            f"{report.acked} acked ({report.reconnects} reconnect(s)) "
            f"[{status}]"
        )

    banner("fleet-wide roll-up (monoid merge of per-gateway deltas)")
    # the front door's registry holds its own routing series and every
    # gateway's ingest_* totals, complete once close() has pulled them
    final = front_door.telemetry.snapshot()
    _, alive = final.gauges[("federation_gateways", ())]
    routed = {
        gateway_id: int(
            final.counter_value("federation_streams", gateway=gateway_id)
        )
        for gateway_id in sorted(
            final.label_values("federation_streams", "gateway")
        )
    }
    print(f"gateways:        {front_door.gateways} started, "
          f"{int(alive)} alive at close")
    print(f"streams routed:  {sum(routed.values())} (by gateway: {routed})")
    print(f"reroutes:        {int(final.counter_total('federation_reroutes'))}")
    print(f"windows decoded: {int(final.counter_total('ingest_windows_decoded'))}, "
          f"lost: {int(final.counter_total('ingest_windows_lost'))}")

    banner("per-stream outcome after the merge")
    merged = merge_stream_results(front_door.results)
    for client in clients:
        result = merged[f"{client.record.name}:0"]
        print(
            f"record {result.record}: {len(result.iterations)}/{WINDOWS} "
            f"windows decoded, lost {result.windows_lost}, "
            f"resynced {result.windows_resynced}"
        )


if __name__ == "__main__":
    asyncio.run(main())
