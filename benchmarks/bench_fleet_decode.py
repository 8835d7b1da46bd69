"""Fleet decode engine: cross-stream pooling + sharded multi-process.

Two tentpole claims over the PR-1 batched engine
(``benchmarks/bench_batched_decode.py``):

1. **Cross-stream pooling beats per-stream batching at equal batch
   width.**  Eight simulated nodes shipping the paper's shared fixed
   sensing matrix form one operator group; their ragged 12-window
   streams pool into full 32-wide solves (3 full batches instead of 8
   narrow ones), with one operator/Lipschitz/workspace per group.
   Required: >= 1.2x on one core, with packets bit-identical to the
   serial reference and identical per-window iteration counts.

2. **Sharding operator groups across processes scales with workers.**
   An 8-stream workload over 4 distinct sensing seeds yields 4
   operator groups; ``FleetDecoder(workers=4)`` decodes them in
   parallel, workers rebuilding operators from seeds (no matrix
   pickling).  Required: >= 2x over single-process pooled decode with
   4 workers — asserted only when the machine actually has >= 4 CPUs
   (process parallelism cannot beat 1x on a single core; the
   equivalence assertions run everywhere).

A third claim rides along since the raw-speed solver pass: the
**hybrid precision backend** (``precision="hybrid"``) decodes the same
pooled fleet faster than float64 at equivalent PRD, and the per-process
operator cache (``repro.core.decoder.resources_for``) hands repeated
``solve_measurement_block`` tasks the *same* solver instance with its
workspace arenas at a fixed point — steady-state fleet serving
allocates no new scratch per task.  These land as the ``hybrid``
section of ``BENCH_fleet_decode.json``.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the workload and relaxes
the timing thresholds so ``scripts/run_tier1.sh`` exercises the full
path — including a real 2-worker pool — in seconds.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.ecg import RECORD_NAMES, SyntheticMitBih
from repro.experiments import render_table
from repro.core.decoder import resources_for
from repro.fleet import FleetDecoder, StreamTask, operator_key
from repro.fleet.engine import solve_measurement_block

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: concurrent node streams in the pooled comparison (one operator group)
POOLED_STREAMS = 4 if SMOKE else 8
#: windows per stream — deliberately ragged against the batch width
WINDOWS_PER_STREAM = 6 if SMOKE else 12
#: target solve width shared by both paths
BATCH_SIZE = 16 if SMOKE else 32
#: required pooled-over-per-stream speedup (equal batch width, one core)
MIN_POOLED_SPEEDUP = 0.9 if SMOKE else 1.2
#: sharded comparison: streams spread over this many sensing seeds
SHARD_GROUPS = 2 if SMOKE else 4
SHARD_STREAMS = 4 if SMOKE else 8
SHARD_WORKERS = 2 if SMOKE else 4
#: required sharded-over-pooled speedup, only meaningful with the CPUs
MIN_SHARDED_SPEEDUP = 2.0
#: required hybrid-over-float64 fleet speedup.  The fleet run carries
#: the (shared) encode phase and scheduler overhead, so the end-to-end
#: gain sits below the solver-level 2x lever; smoke's tiny solves are
#: dominated by overhead and only must not regress.
MIN_HYBRID_FLEET_SPEEDUP = 0.8 if SMOKE else 1.2
#: hybrid PRD must sit within this many points of the float64 run
HYBRID_PRD_GAP_BOUND = 0.5


def _build_streams(count: int, windows: int, seed_of=lambda i: 0):
    """``count`` calibrated node systems, stream ``i`` on seed offset
    ``seed_of(i)`` — offset 0 for all reproduces the paper's shared
    fixed matrix (one operator group)."""
    base = SystemConfig()
    database = SyntheticMitBih(
        duration_s=windows * base.packet_seconds + 4.0, seed=2011
    )
    systems, records = [], []
    for index in range(count):
        config = base.replace(seed=base.seed + seed_of(index))
        record = database.load(list(RECORD_NAMES)[index % 8])
        system = EcgMonitorSystem(config)
        system.calibrate(record)
        systems.append(system)
        records.append(record)
    return systems, records


@pytest.fixture(scope="module")
def fleet_bench(bench_json):
    """Accumulate the pooled and hybrid sections into one
    BENCH_fleet_decode.json."""
    payload: dict = {
        "params": {
            "streams": POOLED_STREAMS,
            "windows_per_stream": WINDOWS_PER_STREAM,
            "batch_size": BATCH_SIZE,
            "min_hybrid_speedup": MIN_HYBRID_FLEET_SPEEDUP,
            "hybrid_prd_gap_bound": HYBRID_PRD_GAP_BOUND,
        },
        "timings": {},
        "hybrid": {},
    }
    yield payload
    bench_json(
        "fleet_decode",
        params=payload["params"],
        timings=payload["timings"],
        hybrid=payload["hybrid"],
    )


@pytest.fixture(scope="module")
def pooled_workload():
    systems, records = _build_streams(POOLED_STREAMS, WINDOWS_PER_STREAM)
    # warm the decode path once (operator caches, BLAS init) so neither
    # timed leg pays first-call overheads
    systems[0].stream(records[0], max_packets=2, batch_size=2)
    return systems, records


def test_fleet_pooled_vs_per_stream(pooled_workload, benchmark, fleet_bench):
    """Cross-stream pooling >= 1.2x over per-stream batching, same B."""
    systems, records = pooled_workload
    keys = {operator_key(s.config) for s in systems}
    assert len(keys) == 1, "shared-seed fleet must form one operator group"

    started = time.perf_counter()
    per_stream = [
        system.stream(
            record, max_packets=WINDOWS_PER_STREAM, batch_size=BATCH_SIZE
        )
        for system, record in zip(systems, records)
    ]
    per_stream_seconds = time.perf_counter() - started

    tasks = [
        StreamTask(system, record, max_packets=WINDOWS_PER_STREAM)
        for system, record in zip(systems, records)
    ]
    started = time.perf_counter()
    pooled = FleetDecoder(batch_size=BATCH_SIZE).run(tasks)
    pooled_seconds = time.perf_counter() - started

    # packets bit-identical to the serial reference; reconstructions
    # follow the serial iterate sequence (identical iteration counts)
    for system, record, fleet_result, batched_result in zip(
        systems, records, pooled, per_stream
    ):
        reference = EcgMonitorSystem(system.config)
        reference.encoder.codebook = system.encoder.codebook
        reference.decoder.codebook = system.encoder.codebook
        serial = reference.stream(record, max_packets=WINDOWS_PER_STREAM)
        assert (
            system.encoder.stats.per_packet_bits
            == reference.encoder.stats.per_packet_bits
        )
        assert [p.iterations for p in fleet_result.packets] == [
            p.iterations for p in serial.packets
        ]
        assert [p.iterations for p in fleet_result.packets] == [
            p.iterations for p in batched_result.packets
        ]
        for fleet_packet, serial_packet in zip(
            fleet_result.packets, serial.packets
        ):
            # solver floating-point noise: batch width changes BLAS
            # summation order; iteration counts above stay identical
            assert fleet_packet.prd_percent == pytest.approx(
                serial_packet.prd_percent, abs=1e-6
            )

    speedup = per_stream_seconds / pooled_seconds
    total = sum(result.num_packets for result in pooled)
    rows = [
        {
            "streams": POOLED_STREAMS,
            "windows_each": WINDOWS_PER_STREAM,
            "batch": BATCH_SIZE,
            "per_stream_s": per_stream_seconds,
            "pooled_s": pooled_seconds,
            "speedup": speedup,
            "windows_per_s": total / pooled_seconds,
        }
    ]
    print("\n" + render_table(rows, title="fleet pooled vs per-stream batched"))
    benchmark.extra_info["pooled_speedup"] = round(speedup, 2)
    fleet_bench["params"]["operator_groups"] = len(keys)
    fleet_bench["timings"].update(
        {
            "per_stream_s": per_stream_seconds,
            "pooled_s": pooled_seconds,
            "pooled_speedup": speedup,
            "pooled_windows_per_s": total / pooled_seconds,
        }
    )
    assert speedup >= MIN_POOLED_SPEEDUP, (
        f"pooled fleet decode reached only {speedup:.2f}x over per-stream "
        f"batched decode (need >= {MIN_POOLED_SPEEDUP}x)"
    )

    def timed_pooled():
        return FleetDecoder(batch_size=BATCH_SIZE).run(tasks)

    benchmark.pedantic(timed_pooled, rounds=1, iterations=1)


def test_fleet_sharded_scaling(bench_json):
    """Sharded decode matches pooled bit-for-bit; >= 2x with the CPUs."""
    systems, records = _build_streams(
        SHARD_STREAMS,
        WINDOWS_PER_STREAM,
        seed_of=lambda i: i % SHARD_GROUPS,
    )
    keys = {operator_key(s.config) for s in systems}
    assert len(keys) == SHARD_GROUPS

    tasks = [
        StreamTask(system, record, max_packets=WINDOWS_PER_STREAM)
        for system, record in zip(systems, records)
    ]
    started = time.perf_counter()
    pooled = FleetDecoder(batch_size=BATCH_SIZE).run(tasks)
    pooled_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sharded = FleetDecoder(batch_size=BATCH_SIZE, workers=SHARD_WORKERS).run(
        tasks
    )
    sharded_seconds = time.perf_counter() - started

    for pooled_result, sharded_result in zip(pooled, sharded):
        assert [p.iterations for p in pooled_result.packets] == [
            p.iterations for p in sharded_result.packets
        ]
        for pooled_packet, sharded_packet in zip(
            pooled_result.packets, sharded_result.packets
        ):
            assert pooled_packet.packet_bits == sharded_packet.packet_bits
            assert pooled_packet.prd_percent == pytest.approx(
                sharded_packet.prd_percent, abs=1e-9
            )

    speedup = pooled_seconds / sharded_seconds
    rows = [
        {
            "streams": SHARD_STREAMS,
            "groups": SHARD_GROUPS,
            "workers": SHARD_WORKERS,
            "pooled_s": pooled_seconds,
            "sharded_s": sharded_seconds,
            "speedup": speedup,
        }
    ]
    print("\n" + render_table(rows, title="fleet sharded vs single-process"))
    bench_json(
        "fleet_decode_sharded",
        params={
            "streams": SHARD_STREAMS,
            "windows_per_stream": WINDOWS_PER_STREAM,
            "batch_size": BATCH_SIZE,
            "operator_groups": SHARD_GROUPS,
            "workers": SHARD_WORKERS,
        },
        timings={
            "pooled_s": pooled_seconds,
            "sharded_s": sharded_seconds,
            "sharded_speedup": speedup,
        },
    )

    cpus = os.cpu_count() or 1
    if SMOKE or cpus < SHARD_WORKERS:
        print(
            f"sharded speedup assertion skipped: smoke={SMOKE}, "
            f"cpus={cpus} < workers={SHARD_WORKERS} (process parallelism "
            "cannot exceed 1x without the cores)"
        )
        return
    assert speedup >= MIN_SHARDED_SPEEDUP, (
        f"sharded fleet decode reached only {speedup:.2f}x over "
        f"single-process pooled (need >= {MIN_SHARDED_SPEEDUP}x "
        f"with {SHARD_WORKERS} workers)"
    )


def test_fleet_hybrid_backend(pooled_workload, fleet_bench):
    """The hybrid backend through the whole fleet path: faster than
    the float64 run at equivalent PRD, and the per-worker solver cache
    keeps its workspace arenas at a fixed point across tasks."""
    systems, records = pooled_workload

    def run(precision):
        fleet = []
        for system, record in zip(systems, records):
            node = EcgMonitorSystem(system.config, precision=precision)
            node.encoder.codebook = system.encoder.codebook
            node.decoder.codebook = system.encoder.codebook
            fleet.append(StreamTask(node, record, max_packets=WINDOWS_PER_STREAM))
        started = time.perf_counter()
        results = FleetDecoder(batch_size=BATCH_SIZE).run(fleet)
        return results, time.perf_counter() - started

    pure, pure_seconds = run("float64")
    hybrid, hybrid_seconds = run("hybrid")

    # unchanged packet bytes, PRD inside the corridor of float64
    prd_gap = 0.0
    for pure_result, hybrid_result in zip(pure, hybrid):
        assert [p.packet_bits for p in pure_result.packets] == [
            p.packet_bits for p in hybrid_result.packets
        ]
        for pure_packet, hybrid_packet in zip(
            pure_result.packets, hybrid_result.packets
        ):
            prd_gap = max(
                prd_gap,
                abs(pure_packet.prd_percent - hybrid_packet.prd_percent),
            )
    assert prd_gap < HYBRID_PRD_GAP_BOUND

    # steady-state worker cache: the same config+precision key must
    # hand back the same solver, and a further solve_measurement_block
    # task must not grow its workspace arenas
    config = systems[0].config
    block_source = EcgMonitorSystem(config, precision="hybrid")
    block_source.encoder.codebook = systems[0].encoder.codebook
    block_source.decoder.codebook = systems[0].encoder.codebook
    packets = []
    samples = block_source._prepare_samples(records[0], 0)
    for index in range(WINDOWS_PER_STREAM):
        window = samples[index * config.n : (index + 1) * config.n]
        packets.append(block_source.encoder.encode(window))
    block = block_source.decoder.payload.measurement_block(
        packets, np.float64
    )
    task = {
        "config": dataclasses.asdict(config),
        "precision": "hybrid",
        "block": block,
        "fractions": np.full(block.shape[1], config.lam, dtype=np.float64),
        "batch_size": BATCH_SIZE,
        "max_iterations": config.max_iterations,
        "tolerance": config.tolerance,
    }
    first = solve_measurement_block(task)
    solver = resources_for(config, "hybrid").solver
    arenas = {key: id(buf) for key, buf in solver.workspace._arenas.items()}
    second = solve_measurement_block(task)
    cached_solver = resources_for(config, "hybrid").solver
    worker_cache_reuse = cached_solver is solver and arenas == {
        key: id(buf) for key, buf in solver.workspace._arenas.items()
    }
    assert worker_cache_reuse
    np.testing.assert_array_equal(first["signals"], second["signals"])
    polish = {
        series["name"]: series["value"]
        for series in second["telemetry"]["counters"]
    }

    total = sum(result.num_packets for result in hybrid)
    speedup = pure_seconds / hybrid_seconds
    rows = [
        {
            "backend": "float64",
            "wall_s": pure_seconds,
            "windows_per_s": total / pure_seconds,
        },
        {
            "backend": "hybrid",
            "wall_s": hybrid_seconds,
            "windows_per_s": total / hybrid_seconds,
        },
    ]
    print("\n" + render_table(rows, title="fleet decode backends"))
    fleet_bench["hybrid"] = {
        "float64_s": pure_seconds,
        "hybrid_s": hybrid_seconds,
        "speedup": speedup,
        "windows_per_s": total / hybrid_seconds,
        "prd_gap": prd_gap,
        "polish_rate": polish["fleet_polish_windows"] / WINDOWS_PER_STREAM,
        "hybrid_windows": polish["fleet_hybrid_windows"],
        "worker_cache_reuse": bool(worker_cache_reuse),
    }
    fleet_bench["timings"]["hybrid_speedup"] = speedup
    assert speedup >= MIN_HYBRID_FLEET_SPEEDUP, (
        f"hybrid fleet decode reached only {speedup:.2f}x over float64 "
        f"(need >= {MIN_HYBRID_FLEET_SPEEDUP}x)"
    )
