"""Set-up and execution of the four workloads (runs in the child).

``prepare`` is what ``setup_s`` times: records, calibration, encoding,
frame pre-encoding and one warm-up solve per width on the workload's
backend.  ``run_live`` drives the in-process gateway over loopback TCP
with :mod:`.loadgen`; ``run_offline`` times one ``FleetDecoder`` batch
job.  Both return plain observations; :mod:`.metrics` turns them into
the named numbers and :mod:`.checks` verifies them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.core.batch import encode_record_windows
from repro.core.decoder import PacketPayloadDecoder
from repro.ecg import SyntheticMitBih
from repro.fleet import FleetDecoder, StreamTask
from repro.fleet.engine import solve_measurement_block
from repro.ingest import IngestGateway
from repro.ingest.channel import LossyChannel

from . import spec, trace
from .loadgen import LinkPlan, LinkReport, LoadLink, plan_link

clock = time.perf_counter

#: widths the live set-up warms (the arenas are grow-only, so 16 sizes
#: them; 4 and 1 touch the narrow GEMM shapes a deadline flush uses)
WARM_WIDTHS = (16, 4, 1)


@dataclass
class Prepared:
    """Inputs of one run, made from ``--seed`` during set-up."""

    workload: spec.Workload
    windows: int  # per link
    config: SystemConfig
    systems: list[EcgMonitorSystem]
    records: list
    #: per link: the (windows, n) original sample block and its packets
    originals: list[np.ndarray]
    packets: list[list]
    plans: list[LinkPlan]
    setup_s: float = 0.0


# repr=False: asyncio.run() formats its main task's result when it
# restores the SIGINT handler, and a repr of every decoded sample
# costs each live run about two seconds
@dataclass(repr=False)
class Observed:
    """Raw outcome of one run."""

    #: live: ``t0`` -> last ack; offline: the job's wall time
    wall_s: float
    reports: list[LinkReport] = field(default_factory=list)
    #: gateway stream results ordered like the links
    results: list = field(default_factory=list)
    batch_log: list = field(default_factory=list)
    #: LinkStats ground truth per link (``None`` on clean links)
    link_stats: list = field(default_factory=list)
    #: the run's MetricsRegistry (gateway's or FleetDecoder's)
    telemetry: object = None
    #: offline: the FleetDecoder StreamResults
    offline: list = field(default_factory=list)
    spans: trace.Spans | None = None
    waterfall: list[dict] = field(default_factory=list)
    offline_totals: dict | None = None


def solve_task(config: SystemConfig, backend: str, block: np.ndarray) -> dict:
    """The task dict the gateway builds for one flushed block."""
    width = block.shape[1]
    return {
        "config": dataclasses.asdict(config),
        "precision": backend,
        "block": block,
        "fractions": np.full(width, config.lam, dtype=np.float64),
        "batch_size": max(width, 1),
        "max_iterations": config.max_iterations,
        "tolerance": config.tolerance,
    }


def prepare(workload: spec.Workload, seed: int, windows: int) -> Prepared:
    """Everything before the first window is due; timed as ``setup_s``.

    ``seed`` drives only the generated inputs (the corpus); the
    program's own ``SystemConfig.seed`` stays at the paper value.
    """
    started = clock()
    config = SystemConfig()
    database = SyntheticMitBih(
        duration_s=windows * config.packet_seconds + 4.0, seed=seed
    )
    records = [database.load(name) for name in spec.RECORDS]
    systems, originals, packets, plans = [], [], [], []
    for record in records:
        system = EcgMonitorSystem(config, precision=workload.backend)
        system.calibrate(record)
        # what repro.ingest.client.encoded_packets wraps; called
        # directly because PRD needs the original windows as well
        block, encoded = encode_record_windows(
            system, record, max_packets=windows
        )
        if len(encoded) != windows:
            raise RuntimeError(
                f"record {record.name} yielded {len(encoded)} windows, "
                f"need {windows}"
            )
        systems.append(system)
        originals.append(block)
        packets.append(encoded)
        if workload.live:
            plans.append(
                plan_link(system, record.name, encoded, fec=workload.lossy)
            )
    if workload.live:
        decoder = PacketPayloadDecoder(
            config, codebook=systems[0].encoder.codebook
        )
        block = decoder.measurement_block(
            packets[0][: max(WARM_WIDTHS)], np.float64
        )
        for width in WARM_WIDTHS:
            solve_measurement_block(
                solve_task(config, workload.backend, block[:, :width])
            )
    else:
        systems[0].decoder.decode_batch(packets[0][: spec.BATCH_SIZE])
        systems[0].decoder.reset()
    prepared = Prepared(
        workload, windows, config, systems, records, originals, packets, plans
    )
    prepared.setup_s = clock() - started
    return prepared


def schedule(workload: spec.Workload, windows: int, seed: int, link: int) -> list[float]:
    """Due offsets from ``t0`` of one link's windows (see
    ``spec.JITTER``); unpaced, every window is due at once."""
    if not workload.rate:
        return [0.0] * windows
    jitter = np.random.default_rng([seed, link]).uniform(
        -spec.JITTER, spec.JITTER, windows
    )
    return list((np.arange(windows) + spec.JITTER + jitter) / workload.rate)


def lossy_channel(link: int) -> LossyChannel:
    return LossyChannel(
        loss=spec.LOSS, reorder=spec.REORDER, seed=spec.CHANNEL_SEED + link
    )


async def _run_live(prepared: Prepared, seed: int) -> Observed:
    workload = prepared.workload
    gateway = IngestGateway(
        batch_size=spec.BATCH_SIZE, flush_ms=spec.FLUSH_MS
    )
    port = await gateway.start()
    links = [
        LoadLink(
            plan,
            schedule(workload, prepared.windows, seed, index),
            lossy_channel(index) if workload.lossy else None,
        )
        for index, plan in enumerate(prepared.plans)
    ]
    try:
        for link in links:
            await link.connect("127.0.0.1", port)
        t0 = clock() + 0.05
        reports = await asyncio.gather(*[link.run(t0) for link in links])
        finished = clock()
    finally:
        await gateway.close()
    by_id = {result.session_id: result for result in gateway.results}
    return Observed(
        wall_s=max(
            [ack for r in reports for ack in r.ack_recv.values()]
            or [finished]
        )
        - t0,
        reports=list(reports),
        results=[by_id[report.stream_id].ordered() for report in reports],
        batch_log=list(gateway.batch_log),
        link_stats=[
            link.link.stats if link.link is not None else None
            for link in links
        ],
        telemetry=gateway.telemetry,
    )


def run_live(prepared: Prepared, seed: int, traced: bool) -> Observed:
    """One live run; traced runs also carry spans and the waterfall."""
    if not traced:
        return asyncio.run(_run_live(prepared, seed))
    with trace.tracing() as spans:
        observed = asyncio.run(_run_live(prepared, seed))
    observed.spans = spans
    observed.waterfall = trace.waterfall(
        spans, observed.reports, observed.results, observed.batch_log
    )
    return observed


def run_offline(prepared: Prepared, traced: bool) -> Observed:
    """The batch job, timed from input to complete result (its own
    encode included)."""
    tasks = [
        StreamTask(
            system, record, max_packets=prepared.windows, keep_signals=True
        )
        for system, record in zip(prepared.systems, prepared.records)
    ]
    decoder = FleetDecoder(batch_size=spec.BATCH_SIZE)
    totals = None
    started = clock()
    if traced:
        with trace.tracing_offline() as totals:
            results = decoder.run(tasks)
    else:
        results = decoder.run(tasks)
    wall = clock() - started
    return Observed(
        wall_s=wall,
        offline=results,
        telemetry=decoder.telemetry,
        offline_totals=totals,
    )
