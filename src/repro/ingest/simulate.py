"""Simulated node fleets for a live gateway: ``repro-ecg serve --simulate``.

:func:`simulated_nodes` builds N :class:`~repro.ingest.client.NodeClient`
links over the synthetic corpus, each optionally behind a seeded
:class:`~repro.ingest.channel.LossyChannel`; :func:`node_rows` turns
their reports and the gateway's per-stream results into one table row
per node.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..config import SystemConfig
from ..core import EcgMonitorSystem
from ..ecg import RECORD_NAMES, SyntheticMitBih
from ..telemetry import MetricsRegistry
from .channel import LossyChannel
from .client import NodeClient, NodeReport

#: seed of node 0's impairment RNG; node ``i`` draws from
#: ``CHANNEL_SEED + i``, so the nodes' loss patterns decorrelate and a
#: run replays exactly.  Fixed: another seed only picks other frames
CHANNEL_SEED = 2011


def simulated_nodes(
    count: int,
    *,
    packets: int,
    cr: float,
    precision: str,
    groups: int,
    interval_s: float,
    channel: LossyChannel,
    fec: bool,
    telemetry: MetricsRegistry,
) -> list[NodeClient]:
    """``count`` calibrated node clients, records assigned round-robin
    over the corpus.  Every node ships the paper's shared fixed matrix
    unless ``groups`` > 1 rotates the sensing seed, splitting the nodes
    into that many operator groups (which a federation ring spreads
    across its gateways)."""
    base = SystemConfig().with_target_cr(cr)
    database = SyntheticMitBih(
        duration_s=packets * base.packet_seconds + 4.0
    )
    nodes = []
    for index in range(count):
        record = database.load(RECORD_NAMES[index % len(RECORD_NAMES)])
        system = EcgMonitorSystem(
            base.replace(seed=base.seed + index % groups),
            precision=precision,
        )
        system.calibrate(record)
        lossy = None
        if channel.impairs:
            lossy = dataclasses.replace(channel, seed=CHANNEL_SEED + index)
        nodes.append(
            NodeClient(
                system,
                record,
                max_packets=packets,
                interval_s=interval_s,
                lossy_channel=lossy,
                telemetry=telemetry,
                fec=fec,
            )
        )
    return nodes


#: the damage columns of a :func:`node_rows` row, each read off the
#: stream's gateway result
DAMAGE_COLUMNS = (
    ("lost", "windows_lost"),
    ("recovered", "windows_recovered"),
    ("resynced", "windows_resynced"),
    ("corrupt", "frames_corrupt"),
    ("dup", "frames_duplicate"),
)


def node_rows(
    reports: Sequence[NodeReport], results: Sequence
) -> list[dict[str, object]]:
    """One row per node.  The damage columns come from the gateway's
    per-stream result, paired by the WELCOME-assigned stream id, which
    stays exact when several nodes stream the same record.  A node with
    no gateway result (refused at the handshake, or abandoned at close)
    has no damage on record: its columns render as n/a, never as 0."""
    by_session = {result.session_id: result for result in results}
    rows = []
    for index, report in enumerate(reports):
        result = by_session.get(report.stream_id)
        rows.append(
            {
                "stream": index,
                "record": report.record,
                "sent": report.sent,
                "decoded": report.acked,
                **{
                    column: None if result is None else getattr(result, name)
                    for column, name in DAMAGE_COLUMNS
                },
                # None (no window ever decoded) renders as n/a, never
                # as a perfect 0.0
                "max_latency_ms": report.max_gateway_latency_ms,
                "mean_iters": (
                    sum(report.iterations) / max(len(report.iterations), 1)
                ),
            }
        )
    return rows
