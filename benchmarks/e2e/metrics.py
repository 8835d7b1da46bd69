"""From raw observations to the named metrics (runs in the child)."""

from __future__ import annotations

import resource

import numpy as np

from repro.core.packets import EncodedPacket
from repro.errors import PacketFormatError
from repro.ingest.protocol import FrameKind
from repro.metrics import prd

from . import spec, trace
from .checks import decoded_windows
from .workloads import Observed, Prepared


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def window_prds(prepared: Prepared, decoded: dict) -> list[float]:
    """PRD of every delivered window against its original samples."""
    dc_offset = prepared.systems[0].encoder.dc_offset
    return [
        prd(
            prepared.originals[link][sequence].astype(np.float64) - dc_offset,
            samples - dc_offset,
        )
        for (link, sequence), (samples, _iterations) in decoded.items()
    ]


def ack_latencies_ms(observed: Observed) -> list[float]:
    """``ack_recv - due`` of every acked window.  Unpaced, every window
    is due at ``t0``, so these are completion times of the batch job."""
    return [
        1e3 * (ack - report.due[sequence])
        for report in observed.reports
        for sequence, ack in report.ack_recv.items()
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    prepared: Prepared, observed: Observed, prds: list[float], rss_mb: float
) -> dict[str, float]:
    """Every end-to-end metric of one run, plus ``attempted`` and
    ``failed`` window counts."""
    windows = prepared.windows * len(prepared.packets)
    if prepared.workload.live:
        sent = sum(report.sent for report in observed.reports)
        decoded = sum(result.num_windows for result in observed.results)
        latencies = ack_latencies_ms(observed)
        wire = sum(report.wire_bytes for report in observed.reports)
    else:
        sent = windows
        decoded = sum(result.num_packets for result in observed.offline)
        # a batch job delivers every result when it returns
        latencies = [1e3 * observed.wall_s] * decoded
        # no wire: the on-air packet bytes a node would have radioed
        wire = sum(len(p.to_bytes()) for link in prepared.packets for p in link)
    missed = sum(1 for value in latencies if value > spec.BUDGET_MS)
    return {
        "attempted": sent,
        "failed": sent - decoded,
        "setup_s": prepared.setup_s,
        "windows_per_s": decoded / observed.wall_s,
        "ack_p50_ms": percentile(latencies, 50),
        "ack_p95_ms": percentile(latencies, 95),
        "budget_miss_share": (missed + sent - len(latencies)) / sent,
        "failed_share": (sent - decoded) / sent,
        "prd_mean_pct": float(np.mean(prds)),
        "wire_bytes_per_window": wire / decoded,
        "peak_rss_mb": rss_mb,
    }


def affected_sequences(stats) -> set[int]:
    """Sequences whose own frame the link dropped or delivered out of
    order (from the link's recorded ground truth)."""
    affected = set(stats.dropped_sequences)
    highest = -1
    seen: set[int] = set()
    for kind, body in stats.delivered_frames:
        if kind != int(FrameKind.PACKET):
            continue
        try:
            sequence = EncodedPacket.from_bytes(body).sequence
        except PacketFormatError:  # a bit-flipped copy delivers nothing
            continue
        if sequence not in seen and sequence < highest:
            affected.add(sequence)
        seen.add(sequence)
        highest = max(highest, sequence)
    return affected


def run_layers(
    prepared: Prepared, observed: Observed, decoded: dict
) -> dict[str, float]:
    """Per-layer metrics read off the run itself (counts, shares and
    the traced waterfall); :mod:`.layers` adds the replayed costs."""
    config = prepared.config
    iterations = [count for _samples, count in decoded.values()]
    mean_iterations = float(np.mean(iterations))
    # published by solve_measurement_block; the offline float64 job
    # has no hybrid windows
    hybrid = observed.telemetry.counter_total("fleet_hybrid_windows")
    polished = observed.telemetry.counter_total("fleet_polish_windows")
    out = {
        "solvers.iterations_per_window": mean_iterations,
        "solvers.flops_per_window": 4.0 * config.m * config.n * mean_iterations,
        "solvers.cap_hit_share": float(
            np.mean([count >= config.max_iterations for count in iterations])
        ),
        "solvers.polish_rate": polished / hybrid if hybrid else 0.0,
    }
    if not prepared.workload.live:
        windows = len(decoded)
        batches = -(-windows // spec.BATCH_SIZE)
        totals = observed.offline_totals or {}
        covered = sum(seconds for seconds, _calls in totals.values())
        out.update(
            {
                "loadgen.lag_p95_ms": 0.0,
                "loadgen.sent": float(windows),
                "loadgen.acked": float(windows),
                "ingest.gateway.batch_width_mean": windows / batches,
                "ingest.gateway.flush_full_share": (
                    windows // spec.BATCH_SIZE
                )
                / batches,
                "ingest.gateway.solver_busy_share": (
                    (totals["solve"][0] + totals["synthesis"][0])
                    / observed.wall_s
                    if totals
                    else 0.0
                ),
                "trace.unattributed_share": (
                    1.0 - covered / observed.wall_s if totals else 0.0
                ),
            }
        )
        for name in spec.PER_LAYER_BY_NAME:
            if name.startswith(("ingest.channel.", "ingest.gateway.")):
                out.setdefault(name, 0.0)
        return out

    reports, results = observed.reports, observed.results
    lags = [
        1e3 * (sent_at - due)
        for report in reports
        for sent_at, due in zip(report.sent_at, report.due)
    ]
    widths = [len(members) for _key, members, _reason in observed.batch_log]
    recovered = sum(r.windows_recovered for r in results)
    lost = sum(r.windows_lost + r.windows_resynced for r in results)
    held = [
        1e3 * (report.ack_recv[sequence] - report.due[sequence])
        for report, stats in zip(reports, observed.link_stats)
        if stats is not None
        for sequence in affected_sequences(stats)
        if sequence in report.ack_recv
    ]
    out.update(
        {
            # unpaced, "due" is the job start: lateness is undefined
            "loadgen.lag_p95_ms": (
                percentile(lags, 95) if prepared.workload.rate else 0.0
            ),
            "loadgen.sent": float(sum(r.sent for r in reports)),
            "loadgen.acked": float(sum(r.acked for r in reports)),
            "ingest.channel.recovered_parity": float(
                sum(r.windows_recovered_parity for r in results)
            ),
            "ingest.channel.recovered_retransmit": float(
                sum(r.windows_recovered_retransmit for r in results)
            ),
            "ingest.channel.nacks_sent": float(
                sum(r.nacks_sent for r in results)
            ),
            "ingest.channel.windows_lost": float(lost),
            "ingest.channel.recovered_share": (
                recovered / (recovered + lost) if recovered + lost else 1.0
            ),
            "ingest.channel.hold_p95_ms": (
                percentile(held, 95) if held else 0.0
            ),
            "ingest.gateway.batch_width_mean": float(np.mean(widths)),
            "ingest.gateway.flush_full_share": float(
                np.mean(
                    [reason == "full" for _k, _m, reason in observed.batch_log]
                )
            ),
            "ingest.gateway.backlog_max": float(
                sum(report.backlog_max for report in reports)
            ),
        }
    )
    waterfall = observed.waterfall
    if waterfall:
        queue = [1e3 * w["queue"] for w in waterfall]
        out.update(
            {
                "ingest.gateway.queue_wait_p50_ms": percentile(queue, 50),
                "ingest.gateway.queue_wait_p95_ms": percentile(queue, 95),
                "ingest.gateway.route_ack_p50_ms": percentile(
                    [1e3 * w["route_ack"] for w in waterfall], 50
                ),
                "ingest.gateway.solver_busy_share": sum(
                    end - start for start, end, _w in observed.spans.solves
                )
                / observed.wall_s,
                "trace.unattributed_share": trace.unattributed_share(
                    waterfall
                ),
            }
        )
    return out


def summarize(
    prepared: Prepared, observed: Observed
) -> tuple[dict, list[float], float]:
    """``(decoded windows, their PRDs, peak RSS)`` right after a run,
    before the checks allocate anything."""
    rss_mb = peak_rss_mb()
    decoded = decoded_windows(prepared, observed)
    return decoded, window_prds(prepared, decoded), rss_mb
