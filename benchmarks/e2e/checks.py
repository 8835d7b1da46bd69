"""In-run correctness checks: a failed one aborts the run unprinted.

Every run checks conservation, ack counts, finite PRDs and
(``lossy_fec``) that the live damage accounting equals
``replay_survivors`` over the link's recorded fates.  A stream the
gateway ended with an ``ERROR`` is an outcome, not a wrong output: its
undelivered windows count as failed and the checks skip it.  The first repeat
of a set also runs the two solver-replaying checks, which cost about a
second: the first 8 batches replayed through
``solve_measurement_block`` offline must match bit for bit, and
``offline_ref64`` must equal ``EcgMonitorSystem.stream`` on the first
32 windows per stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import EcgMonitorSystem
from repro.fleet.engine import solve_measurement_block
from repro.ingest.channel import replay_survivors

from . import spec
from .workloads import Observed, Prepared, solve_task

clock = time.perf_counter

REPLAY_BATCHES = 8
REFERENCE_WINDOWS = 32
#: IngestGateway's default, which the workloads leave alone; an
#: offline replay must give up on the same budget
NACK_BUDGET = 8


class CheckFailed(Exception):
    """An output of the program under test was wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def decoded_windows(
    prepared: Prepared, observed: Observed
) -> dict[tuple[int, int], tuple[np.ndarray, int]]:
    """``(link, sequence) -> (samples_adu, iterations)`` of every
    window the program delivered."""
    decoded = {}
    if prepared.workload.live:
        for link, result in enumerate(observed.results):
            for sequence, samples, iterations in zip(
                result.sequences, result.samples_adu, result.iterations
            ):
                decoded[(link, sequence)] = (samples, iterations)
    else:
        n = prepared.config.n
        for link, result in enumerate(observed.offline):
            blocks = result.reconstructed_adu.reshape(-1, n)
            for sequence, packet in enumerate(result.packets):
                decoded[(link, sequence)] = (blocks[sequence], packet.iterations)
    return decoded


def check_conservation(prepared: Prepared, observed: Observed) -> None:
    """Per stream: ``sent == decoded + lost`` and acks == decoded."""
    if not prepared.workload.live:
        for result in observed.offline:
            require(
                result.num_packets == prepared.windows,
                f"offline stream {result.record} decoded "
                f"{result.num_packets} of {prepared.windows} windows",
            )
        return
    for report, result in zip(observed.reports, observed.results):
        if result.error is not None:
            continue
        lost = result.windows_lost + result.windows_resynced
        require(
            report.sent == result.num_windows + lost,
            f"stream {report.record}: sent {report.sent} != decoded "
            f"{result.num_windows} + lost {lost}",
        )
        require(
            report.acked == result.num_windows
            and len(report.ack_recv) == result.num_windows,
            f"stream {report.record}: {report.acked} acks for "
            f"{result.num_windows} decoded windows",
        )


def stream_columns(
    prepared: Prepared, observed: Observed, link: int
) -> tuple[dict[int, np.ndarray], object]:
    """Offline stages 1-2 over what the link delivered: the accepted
    ``sequence -> column`` map and the damage accounting."""
    stats = observed.link_stats[link] if observed.link_stats else None
    delivered = (
        stats.delivered_frames
        if stats is not None
        else [packet.to_bytes() for packet in prepared.packets[link]]
    )
    accepted, accounting = replay_survivors(
        prepared.config,
        prepared.systems[link].encoder.codebook,
        delivered,
        dtype=np.float64,
        windows_sent=prepared.windows,
        fec=prepared.workload.lossy,
        nack_budget=NACK_BUDGET,
    )
    return dict(accepted), accounting


def replayed_streams(prepared: Prepared, observed: Observed) -> list:
    """:func:`stream_columns` of every link, ``None`` for a stream
    the gateway ended with an error (its replay would raise too)."""
    return [
        None
        if observed.results and observed.results[link].error is not None
        else stream_columns(prepared, observed, link)
        for link in range(len(prepared.packets))
    ]


def check_damage_accounting(observed: Observed, streams: list) -> None:
    """``lossy_fec``: live accounting == offline replay of the fates."""
    for result, replayed in zip(observed.results, streams):
        if replayed is None:
            continue
        columns, accounting = replayed
        # window-level damage only: the frame counters (duplicate,
        # late retransmit) also count copies the link delivered after
        # the gateway had everything and stopped reading
        live = (
            result.windows_lost,
            result.windows_resynced,
            result.windows_recovered_parity,
            result.windows_recovered_retransmit,
        )
        offline = (
            accounting.windows_lost,
            accounting.windows_resynced,
            accounting.windows_recovered_parity,
            accounting.windows_recovered_retransmit,
        )
        require(
            live == offline,
            f"stream {result.record}: live damage accounting {live} != "
            f"replay_survivors {offline}",
        )
        require(
            sorted(result.sequences) == sorted(columns),
            f"stream {result.record}: live decoded sequences differ "
            "from the offline replay's accepted set",
        )


@dataclass
class Replay:
    """Timing by-product of the batch-replay check."""

    seconds: float = 0.0
    windows: int = 0
    iterations: int = 0
    widths: list[int] = field(default_factory=list)


def first_batches(prepared: Prepared, observed: Observed) -> list[list[tuple[int, int]]]:
    """Member ``(link, sequence)`` lists of the first logged batches."""
    if prepared.workload.live:
        link_of = {
            result.session_id: link
            for link, result in enumerate(observed.results)
        }
        return [
            [
                (link_of[sid], observed.results[link_of[sid]].sequences[index])
                for sid, index in members
            ]
            for _key, members, _reason in observed.batch_log[:REPLAY_BATCHES]
        ]
    # FleetDecoder pools one group's streams back to back and cuts
    # the pooled column stream every batch_size columns
    pooled = [
        (link, sequence)
        for link in range(len(prepared.packets))
        for sequence in range(prepared.windows)
    ]
    return [
        pooled[start : start + spec.BATCH_SIZE]
        for start in range(0, len(pooled), spec.BATCH_SIZE)
    ][:REPLAY_BATCHES]


def check_batch_replay(
    prepared: Prepared, observed: Observed, decoded: dict, streams: list
) -> Replay:
    """Replay the first batches through ``solve_measurement_block``
    offline; every sample and iteration count must match exactly."""
    dc_offset = prepared.systems[0].encoder.dc_offset
    replay = Replay()
    for members in first_batches(prepared, observed):
        if any(streams[link] is None for link, _sequence in members):
            continue
        block = np.stack(
            [streams[link][0][sequence] for link, sequence in members], axis=1
        )
        task = solve_task(prepared.config, prepared.workload.backend, block)
        started = clock()
        out = solve_measurement_block(task)
        replay.seconds += clock() - started
        replay.windows += len(members)
        replay.iterations += int(out["iterations"].sum())
        replay.widths.append(len(members))
        for column, wid in enumerate(members):
            samples, iterations = decoded[wid]
            np.testing.assert_array_equal(
                samples, out["signals"][:, column] + dc_offset,
                err_msg=f"window {wid} differs from its offline replay",
            )
            require(
                iterations == int(out["iterations"][column]),
                f"window {wid}: {iterations} iterations live, "
                f"{int(out['iterations'][column])} replayed",
            )
    return replay


def check_serial_reference(prepared: Prepared, decoded: dict) -> None:
    """``offline_ref64`` == ``EcgMonitorSystem.stream`` on the first
    windows of each stream (same batch width, so bit-identical)."""
    count = min(REFERENCE_WINDOWS, prepared.windows)
    n = prepared.config.n
    for link, (system, record) in enumerate(
        zip(prepared.systems, prepared.records)
    ):
        reference = EcgMonitorSystem(
            prepared.config,
            codebook=system.encoder.codebook,
            precision=prepared.workload.backend,
        )
        expected = reference.stream(
            record,
            max_packets=count,
            keep_signals=True,
            batch_size=spec.BATCH_SIZE,
        )
        blocks = expected.reconstructed_adu.reshape(-1, n)
        for sequence, packet in enumerate(expected.packets):
            samples, iterations = decoded[(link, sequence)]
            require(
                iterations == packet.iterations,
                f"offline window {(link, sequence)}: {iterations} "
                f"iterations, reference {packet.iterations}",
            )
            np.testing.assert_array_equal(
                samples, blocks[sequence],
                err_msg=f"offline window {(link, sequence)} differs "
                "from EcgMonitorSystem.stream",
            )


def check_run(
    prepared: Prepared, observed: Observed, prds: list[float], heavy: bool
) -> Replay:
    """All checks for one run; raises :class:`CheckFailed` (or the
    ``AssertionError`` of a bit-identity mismatch)."""
    check_conservation(prepared, observed)
    require(bool(prds), "no window was decoded")
    require(all(np.isfinite(prds)), "a decoded window has a non-finite PRD")
    if not (heavy or prepared.workload.lossy):
        return Replay()
    streams = replayed_streams(prepared, observed)
    if prepared.workload.lossy:
        check_damage_accounting(observed, streams)
    if not heavy:
        return Replay()
    decoded = decoded_windows(prepared, observed)
    if not prepared.workload.live:
        check_serial_reference(prepared, decoded)
    return check_batch_replay(prepared, observed, decoded, streams)
