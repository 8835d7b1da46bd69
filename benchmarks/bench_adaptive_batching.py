"""Adaptive batch control vs fixed batching, under bursty arrivals.

A bursty workload — cohort bursts (a block of windows lands at once,
then the link idles) punctuated by a full surge wave — is driven
through one gateway per configuration: a sweep of fixed batch sizes
and the adaptive controller.  The score is *windows within the
real-time budget*.  Required: adaptive >= 1.15x the best fixed batch
size.  Fixed batching loses coming and going: a cohort smaller than
the batch width sits out the idle-flush deadline, and the budget does
not afford that wait plus the solve — the *pressure rule* flushes the
cohort exactly when waiting longer would forfeit it, which no fixed
deadline can do for every load; meanwhile unbatched (or tiny) widths
survive the cohorts but serialize per-flush overhead under the surge
wave and drown.  One knob setting cannot win both regimes; the
controller retunes between them.

This is the only evidence that the ``adaptive`` option earns its keep:
no ``benchmarks/e2e`` workload is bursty.  The other side of the
contract — with no backlog and no budget threat the controller holds
the configured operating point, flush for flush and bit for bit — is
``tests/ingest/test_adaptive.py::TestAdaptiveGateway``.

Budget calibration: the paper's 2 s budget binds on its reference
hardware; what defines the *regime* is how the budget relates to the
two knobs under test — the configured idle-flush deadline and the
measured cohort solve time.  The bench probes this machine's solve
cost and places the budget mid-corridor between the adaptive path
(pressure-flush lead + cohort solve) and the fixed path (idle
deadline + cohort solve), so the same scenario runs on any machine: a
3x faster solver does not trivially hit every deadline, a 3x slower
one does not miss them all.  On hardware so slow that the corridor
closes (the cohort solve alone exceeds what the deadline leaves of
the budget) the >= 1.15x assertion is skipped with a printed reason.

One sizing: the scenario is calibrated, not wall-clock-bound, so there
is no reduced mode.  The outcome lands in
``BENCH_adaptive_batching.json``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.core.batch import encode_record_windows
from repro.core.decoder import PacketPayloadDecoder
from repro.ecg import RECORD_NAMES, SyntheticMitBih
from repro.experiments import render_table
from repro.fleet.engine import solve_measurement_block
from repro.ingest import (
    AdaptiveConfig,
    FrameKind,
    Handshake,
    IngestGateway,
    encode_frame,
    encode_json_frame,
)

#: the paper's operating point.  The regime that decides the outcome —
#: the ratio of per-flush overhead to per-window solve cost — is a
#: property of the *configuration* (both scale with the same matrix
#: sizes), so it stays put across machines of different speeds.
BENCH_CONFIG = SystemConfig()

#: the configured (base) operating point every gateway starts from —
#: the serve defaults a deployer would reasonably run
BASE_BATCH = 16
BASE_FLUSH_MS = 500.0
#: fixed sweep compared against the adaptive controller: quarter
#: base, base, and 4x base (width 1 — no batching at all — is the
#: degenerate gateway the batched decode engine exists to replace)
FIXED_SWEEP = (4, 16, 64)
#: streams; cohort bursts land COHORT windows at once (round-robin
#: across streams), surge waves dump WAVE_PER_STREAM windows per
#: stream at once
STREAMS = 4
COHORT = 7
WAVE_PER_STREAM = 8
COHORTS_SCORED = 8
WAVES_SCORED = 1
#: warmup (unscored, identical for every configuration): one wave to
#: warm caches and let the controller learn the solve-time model,
#: then two cohorts
WARMUP_WAVES = 1
WARMUP_COHORTS = 2
#: pressure-lead safety margin of the adaptive controller, as a
#: fraction of the budget (generous: all-or-nothing cohort flushes
#: must not ride on model-fit noise)
SAFETY_FRAC = 0.3
#: the acceptance pin
MIN_RATIO = 1.15


@pytest.fixture(scope="module")
def adaptive_bench(bench_json):
    """The scenario's outcome, written as BENCH_adaptive_batching.json."""
    payload: dict = {"params": {}, "timings": {}}
    yield payload
    bench_json(
        "adaptive_batching",
        params=payload["params"],
        timings=payload["timings"],
    )


def _build_streams(count: int, windows: int):
    """``count`` calibrated systems sharing one operator group, plus
    their pre-encoded packets (``windows`` each, one encode pass)."""
    database = SyntheticMitBih(
        duration_s=windows * BENCH_CONFIG.packet_seconds + 4.0, seed=2011
    )
    streams = []
    for index in range(count):
        record = database.load(list(RECORD_NAMES)[index % 8])
        system = EcgMonitorSystem(BENCH_CONFIG)
        system.calibrate(record)
        _, packets = encode_record_windows(
            system, record, max_packets=windows
        )
        streams.append((system, record, packets))
    return streams


def _calibrate(streams) -> dict:
    """Probe this machine's solve cost and place the budget.

    Measures one cohort-wide solve (median of two) and derives the
    two latency paths a cohort can take:

    - adaptive: pressure-flush lead (safety margin) + cohort solve;
    - fixed:    configured idle-flush deadline + cohort solve
      (a cohort narrower than the batch width has no other trigger).

    The budget lands mid-corridor between them.  ``corridor_ok`` is
    False when the machine is too slow for the corridor to exist; the
    superiority assertion is then skipped (printed).  The probe also
    warms the operator/Lipschitz caches so no timed leg pays
    first-call costs.
    """
    system, _record, packets = streams[0]
    payload = PacketPayloadDecoder(
        BENCH_CONFIG, codebook=system.encoder.codebook
    )
    payload.reset()
    block = payload.measurement_block(packets[:16], np.float64)
    fractions = np.full(block.shape[1], BENCH_CONFIG.lam)

    def solve_seconds(width: int) -> float:
        started = time.perf_counter()
        solve_measurement_block(
            {
                "config": dataclasses.asdict(BENCH_CONFIG),
                "precision": "float64",
                "block": block[:, :width],
                "fractions": fractions[:width],
                "batch_size": width,
                "max_iterations": BENCH_CONFIG.max_iterations,
                "tolerance": BENCH_CONFIG.tolerance,
            }
        )
        return time.perf_counter() - started

    solve_seconds(4)  # warm caches (operator build, BLAS, imports)
    t_cohort = float(
        np.median([solve_seconds(COHORT) for _ in range(2)])
    )
    base_flush_s = BASE_FLUSH_MS / 1000.0
    # the adaptive path needs the cohort solve plus its pressure lead
    # (the controller flushes SAFETY_FRAC x budget early, so the
    # budget must leave that fraction spare); the fixed path pays the
    # idle deadline plus the (smaller) remainder solve — 0.5 x
    # t_cohort is a conservative stand-in for the worst sweep
    # member's remainder
    adaptive_path = (1.2 * t_cohort + 0.08) / (1.0 - SAFETY_FRAC)
    fixed_path = base_flush_s + 0.5 * t_cohort
    return {
        "t_cohort_s": t_cohort,
        "adaptive_path_s": adaptive_path,
        "fixed_path_s": fixed_path,
        "budget_s": 0.5 * (adaptive_path + fixed_path),
        "corridor_ok": adaptive_path < fixed_path,
    }


def _windows_per_stream() -> int:
    cohorts = (WARMUP_COHORTS + COHORTS_SCORED) * COHORT
    waves = (WARMUP_WAVES + WAVES_SCORED) * WAVE_PER_STREAM * STREAMS
    return -(-(cohorts + waves) // STREAMS) + COHORT  # rr slack


@pytest.fixture(scope="module")
def calibration():
    streams = _build_streams(STREAMS, _windows_per_stream())
    return streams, _calibrate(streams)


async def _open_session(gateway, system, record):
    reader, writer = gateway.connect_local()
    writer.write(
        Handshake(
            record=record.name,
            channel=0,
            config=system.config,
            codebook=system.encoder.codebook,
        ).to_frame()
    )
    return reader, writer


async def _wait_decoded(gateway, expected: int, timeout_s: float = 600.0):
    deadline = time.monotonic() + timeout_s
    while gateway.stats.windows_decoded < expected:
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"gateway decoded {gateway.stats.windows_decoded} of "
                f"{expected} windows within {timeout_s}s"
            )
        await asyncio.sleep(0.01)


def _build_plan():
    """The bursty arrival schedule, identical for every configuration.

    Events in order: warmup wave, warmup cohorts, scored cohorts,
    scored surge wave.  Each event lists ``(stream_index,
    window_index)`` pairs; cohorts draw round-robin across streams
    (every stream's windows stay in order — the stateful stages
    upstream require it).  Returns ``(events, scored)`` where each
    event is ``(kind, [(stream, window), ...], is_scored)`` and
    ``scored`` is the set of scored pairs.
    """
    cursors = [0] * STREAMS
    rr = 0
    events = []
    scored: set[tuple[int, int]] = set()

    def take_cohort():
        nonlocal rr
        members = []
        for _ in range(COHORT):
            stream = rr % STREAMS
            members.append((stream, cursors[stream]))
            cursors[stream] += 1
            rr += 1
        return members

    def take_wave():
        members = []
        for stream in range(STREAMS):
            for _ in range(WAVE_PER_STREAM):
                members.append((stream, cursors[stream]))
                cursors[stream] += 1
        return members

    for _ in range(WARMUP_WAVES):
        events.append(("wave", take_wave(), False))
    for _ in range(WARMUP_COHORTS):
        events.append(("cohort", take_cohort(), False))
    for _ in range(COHORTS_SCORED):
        members = take_cohort()
        scored.update(members)
        events.append(("cohort", members, True))
    for _ in range(WAVES_SCORED):
        members = take_wave()
        scored.update(members)
        events.append(("wave", members, True))
    return events, scored


async def _run_bursty_workload(gateway, streams, events):
    """Replay the arrival plan: each event's windows land at once,
    then the gateway fully drains before the next burst (the lull)."""
    sessions = [
        await _open_session(gateway, system, record)
        for system, record, _packets in streams
    ]
    sent = 0
    for _kind, members, _is_scored in events:
        for stream, window in members:
            _reader, writer = sessions[stream]
            packet = streams[stream][2][window]
            writer.write(encode_frame(FrameKind.PACKET, packet.to_bytes()))
        sent += len(members)
        await _wait_decoded(gateway, sent)
        await asyncio.sleep(0.05)  # the lull between bursts
    for stream, (_reader, writer) in enumerate(sessions):
        count = max(w for s, w in _all_pairs(events) if s == stream) + 1
        writer.write(encode_json_frame(FrameKind.BYE, {"windows": count}))
    while len(gateway.results) < len(streams):
        await asyncio.sleep(0.01)
    await gateway.close()


def _all_pairs(events):
    for _kind, members, _is_scored in events:
        yield from members


def _run_bursty(streams, events, scored, batch_size, adaptive, budget_s):
    """One configuration through the bursty plan; returns the gateway
    and its windows-within-budget count over the scored events."""
    gateway = IngestGateway(
        batch_size=batch_size,
        flush_ms=BASE_FLUSH_MS,
        adaptive=adaptive,
        adaptive_config=(
            # scenario tuning: converge on widths whose solve fits 75%
            # of the budget
            AdaptiveConfig(
                budget_s=budget_s,
                headroom_fraction=0.75,
                safety_s=SAFETY_FRAC * budget_s,
            )
            if adaptive
            else None
        ),
        max_pending=4096,  # arrival shaping off: each burst lands whole
    )
    asyncio.run(_run_bursty_workload(gateway, streams, events))
    total = sum(len(members) for _k, members, _s in events)
    assert gateway.stats.windows_decoded == total
    record_to_stream = {
        record.name: index
        for index, (_system, record, _packets) in enumerate(streams)
    }
    hits = 0
    seen = 0
    for result in gateway.results:
        stream = record_to_stream[result.record]
        ordered = result.ordered()
        for index, latency in zip(ordered.indices, ordered.latencies_s):
            if (stream, index) in scored:
                seen += 1
                if latency <= budget_s:
                    hits += 1
    assert seen == len(scored)
    return gateway, hits, seen


def test_adaptive_beats_fixed_under_bursty_load(
    calibration, adaptive_bench
):
    streams, probe = calibration
    budget = probe["budget_s"]
    events, scored_set = _build_plan()

    rows = []
    fixed_hits = {}
    for batch in FIXED_SWEEP:
        gateway, hits, scored = _run_bursty(
            streams, events, scored_set, batch, False, budget
        )
        fixed_hits[batch] = hits
        rows.append(
            {
                "config": f"fixed-{batch}",
                "within_budget": hits,
                "scored": scored,
                "hit_rate": hits / scored,
                "widest_flush": max(
                    len(m) for _k, m, _r in gateway.batch_log
                ),
                "pressure_flushes": gateway.stats.flushes_pressure,
            }
        )

    adaptive_gateway, adaptive_windows, scored = _run_bursty(
        streams, events, scored_set, BASE_BATCH, True, budget
    )
    controller = adaptive_gateway.controller
    rows.append(
        {
            "config": "adaptive",
            "within_budget": adaptive_windows,
            "scored": scored,
            "hit_rate": adaptive_windows / scored,
            "widest_flush": max(
                len(m) for _k, m, _r in adaptive_gateway.batch_log
            ),
            "pressure_flushes": adaptive_gateway.stats.flushes_pressure,
        }
    )
    print(
        "\n"
        + render_table(
            rows,
            title=(
                f"bursty cohorts+surge: {COHORTS_SCORED} cohorts x "
                f"{COHORT} + {WAVES_SCORED} wave(s) x "
                f"{STREAMS * WAVE_PER_STREAM}, budget {budget:.3f}s, "
                f"flush deadline {BASE_FLUSH_MS:.0f} ms"
            ),
        )
    )

    best_fixed = max(fixed_hits.values())
    ratio = adaptive_windows / max(best_fixed, 1)
    adaptive_bench["params"].update(
        {
            "streams": STREAMS,
            "cohort": COHORT,
            "cohorts_scored": COHORTS_SCORED,
            "wave_per_stream": WAVE_PER_STREAM,
            "waves_scored": WAVES_SCORED,
            "base_batch": BASE_BATCH,
            "base_flush_ms": BASE_FLUSH_MS,
            "fixed_sweep": list(FIXED_SWEEP),
            "paper_budget_s": SystemConfig().packet_seconds,
        }
    )
    adaptive_bench["timings"].update(
        {
            "probe_t_cohort_s": probe["t_cohort_s"],
            "adaptive_path_s": probe["adaptive_path_s"],
            "fixed_path_s": probe["fixed_path_s"],
            "corridor_ok": probe["corridor_ok"],
            "budget_s": budget,
            "fixed_within_budget": {
                str(batch): hits for batch, hits in fixed_hits.items()
            },
            "adaptive_within_budget": adaptive_windows,
            "best_fixed_within_budget": best_fixed,
            "within_budget_ratio": ratio,
            "adaptive_effective_batch_final": controller.effective_batch,
            "adaptive_widen_count": controller.widen_count,
            "adaptive_shed_count": controller.shed_count,
            "adaptive_pressure_flushes": int(
                adaptive_gateway.stats.flushes_pressure
            ),
        }
    )
    if not probe["corridor_ok"]:
        print(
            f"superiority assertion skipped: cohort solve "
            f"{probe['t_cohort_s']:.3f}s leaves no corridor between the "
            f"adaptive path ({probe['adaptive_path_s']:.3f}s) and the "
            f"deadline path ({probe['fixed_path_s']:.3f}s) on this "
            f"machine (ratio observed: {ratio:.3f})"
        )
        return
    # the controller must actually be steering (pressure flushes are
    # its budget-aware trigger; a tie of identical gateways cannot
    # produce them)
    assert adaptive_gateway.stats.flushes_pressure >= 1
    assert ratio >= MIN_RATIO, (
        f"adaptive put {adaptive_windows} windows inside the budget vs "
        f"{best_fixed} for the best fixed batch "
        f"(ratio {ratio:.3f} < {MIN_RATIO})"
    )
