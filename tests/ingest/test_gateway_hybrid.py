"""Live path, both backends: the gateway output is bit-identical to
the offline replay of the same surviving packet set.

The hybrid backend (float32 FISTA + sparse residual gate + float64
polish) is as deterministic for a given batch composition as the
float64 reference, so the wire path must add nothing: running a node
through the real asyncio gateway — over a lossy channel, fec off and
on — and then replaying the gateway's logged batch compositions
through :func:`~repro.fleet.engine.solve_measurement_block` with the
same precision must reproduce every delivered sample **exactly**
(``assert_array_equal``, not allclose).  This is the live-gateway leg
of the cross-stack equivalence harness in
``tests/solvers/test_equivalence_harness.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.core import EcgMonitorSystem
from repro.fleet.engine import solve_measurement_block
from repro.ingest import (
    IngestGateway,
    LossyChannel,
    NodeClient,
    replay_survivors,
)

WINDOWS = 9
NACK_BUDGET = 8


async def _drain(gateway):
    while gateway._conn_tasks:
        await asyncio.gather(
            *list(gateway._conn_tasks), return_exceptions=True
        )


@pytest.mark.parametrize("precision", ["hybrid", "float64"])
@pytest.mark.parametrize("fec", [False, True], ids=["fec_off", "fec_on"])
def test_live_gateway_matches_offline_replay(
    small_config, database, fec, precision
):
    config = small_config.replace(keyframe_interval=4)
    record = database.load("100")
    system = EcgMonitorSystem(config, precision=precision)
    system.calibrate(record)
    channel = LossyChannel(drop_sequences=(2,), seed=7)

    async def run():
        gateway = IngestGateway(
            batch_size=4, flush_ms=50.0, nack_budget=NACK_BUDGET
        )
        reader, writer = gateway.connect_local()
        client = NodeClient(
            system,
            record,
            max_packets=WINDOWS,
            interval_s=0.0,
            lossy_channel=channel,
            fec=fec,
        )
        await asyncio.wait_for(client.run(reader, writer), timeout=60.0)
        await _drain(gateway)
        await gateway.close()
        return gateway, client.last_link

    gateway, link = asyncio.run(run())
    result = gateway.results[0].ordered()
    assert result.error is None

    # with fec the dropped diff window is rebuilt from the epoch's
    # parity frame; without it the drop costs the window plus resyncs
    if fec:
        assert result.num_windows == WINDOWS
        assert result.windows_recovered_parity == 1
    else:
        assert result.windows_lost == 1
        assert result.windows_resynced > 0

    # the offline survivor replay reconstructs the same accepted set
    delivered = (
        link.stats.delivered_frames if fec else link.stats.delivered
    )
    accepted, accounting = replay_survivors(
        config,
        system.encoder.codebook,
        delivered,
        windows_sent=WINDOWS,
        fec=fec,
        nack_budget=NACK_BUDGET,
    )
    assert result.sequences == [seq for seq, _ in accepted]
    assert result.windows_lost == accounting.windows_lost
    assert result.windows_resynced == accounting.windows_resynced

    # bit-identity: replay the gateway's logged batch compositions
    # through the offline solver — same columns, same widths, same
    # backend => identical bits out
    columns = {
        (result.session_id, index): column
        for index, (_seq, column) in enumerate(accepted)
    }
    dc_offset = 1 << (config.adc_bits - 1)
    replayed = 0
    for _key, members, _reason in gateway.batch_log:
        block = np.stack([columns[member] for member in members], axis=1)
        out = solve_measurement_block(
            {
                "config": dataclasses.asdict(config),
                "precision": precision,
                "block": block,
                "fractions": np.full(
                    block.shape[1], config.lam, dtype=np.float64
                ),
                "batch_size": block.shape[1],
                "max_iterations": config.max_iterations,
                "tolerance": config.tolerance,
            }
        )
        for column, (_session_id, index) in enumerate(members):
            np.testing.assert_array_equal(
                result.samples_adu[index],
                out["signals"][:, column] + dc_offset,
            )
            replayed += 1
    assert replayed == result.num_windows
