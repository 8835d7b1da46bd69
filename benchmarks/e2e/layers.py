"""Offline layer replay: the finer per-window costs of a traced run.

The same wire bytes the run sent are looped through each layer's
public function, outside the live path, and the median of
:data:`PASSES` passes is reported.  These are the costs too small for
a live span (framing, CRC, Huffman, redundancy, dequantize, Phi apply,
synthesis, pickle hand-off, telemetry calls).
"""

from __future__ import annotations

import asyncio
import pickle
import statistics
import time

import numpy as np

from repro.coding import BitReader, DifferentialCodec
from repro.core.decoder import PacketPayloadDecoder
from repro.core.packets import (
    EncodedPacket,
    PacketKind,
    unpack_keyframe_values,
)
from repro.core.quantizer import MeasurementQuantizer
from repro.ingest.channel import SequenceTracker, StreamRecovery
from repro.ingest.protocol import FrameKind, encode_frame, read_frame
from repro.sensing import SparseBinaryMatrix
from repro.solvers.sparse_apply import SparsePhiApply
from repro.telemetry import MetricsRegistry
from repro.wavelet import WaveletTransform

from . import spec
from .checks import NACK_BUDGET, Replay
from .workloads import Observed, Prepared, solve_task

clock = time.perf_counter

PASSES = 5
#: packets per link a pass loops over (stage 1-2 costs do not depend
#: on how long the run was)
REPLAY_PACKETS = 128
OBSERVE_CALLS = 20000


def median_seconds(body) -> float:
    """Median wall time of :data:`PASSES` calls of ``body()``."""
    times = []
    for _ in range(PASSES):
        started = clock()
        body()
        times.append(clock() - started)
    return statistics.median(times)


async def _read_all(frames: list[bytes]) -> float:
    reader = asyncio.StreamReader()
    for frame in frames:
        reader.feed_data(frame)
    reader.feed_eof()
    started = clock()
    while await read_frame(reader) is not None:
        pass
    return clock() - started


def layer_costs(prepared: Prepared, observed: Observed, replay: Replay) -> dict[str, float]:
    """Per-layer cost metrics, keyed by their BENCHMARK.json names."""
    config = prepared.config
    packets = prepared.packets[0][:REPLAY_PACKETS]
    bodies = [packet.to_bytes() for packet in packets]
    codebook = prepared.systems[0].encoder.codebook
    count = len(packets)
    us = 1e6 / count
    costs: dict[str, float] = {}

    encoder = prepared.systems[0].encoder
    windows = prepared.originals[0][:REPLAY_PACKETS]

    def encode():
        encoder.reset()
        encoder.encode_batch(windows)

    costs["core.encoder.encode_us_per_window"] = median_seconds(encode) * us
    costs["core.encoder.bits_per_window"] = float(
        np.mean([p.total_bits for link in prepared.packets for p in link])
    )

    frames: list[bytes] = []

    def frame_all():
        frames[:] = [encode_frame(FrameKind.PACKET, body) for body in bodies]

    costs["ingest.protocol.frame_us"] = (
        median_seconds(frame_all)
        + statistics.median(
            asyncio.run(_read_all(frames)) for _ in range(PASSES)
        )
    ) * us

    costs["core.packets.parse_crc_us"] = (
        median_seconds(lambda: [EncodedPacket.from_bytes(b) for b in bodies])
        * us
    )

    diffs = [p for p in packets if p.kind is PacketKind.DIFFERENCE]

    def huffman():
        for packet in diffs:
            reader = BitReader(packet.payload, bit_length=packet.payload_bits)
            codebook.code.decode(reader, config.m)

    costs["coding.huffman_decode_us"] = (
        median_seconds(huffman) * 1e6 / max(len(diffs), 1)
    )

    # the codec's inputs and outputs, decoded once outside the timing
    values, quantized = [], []
    payload = PacketPayloadDecoder(config, codebook=codebook)
    for packet in packets:
        if packet.kind is PacketKind.KEYFRAME:
            values.append(unpack_keyframe_values(packet.payload, config.m))
        else:
            reader = BitReader(packet.payload, bit_length=packet.payload_bits)
            values.append(
                np.asarray(
                    [
                        codebook.value_for(s)
                        for s in codebook.code.decode(reader, config.m)
                    ],
                    dtype=np.int64,
                )
            )
        quantized.append(payload.decode_payload(packet))

    def redundancy():
        codec = DifferentialCodec(keyframe_interval=config.keyframe_interval)
        for packet, vector in zip(packets, values):
            codec.decode(packet.kind is PacketKind.KEYFRAME, vector)

    costs["coding.redundancy_us"] = median_seconds(redundancy) * us

    quantizer = MeasurementQuantizer(d=config.d)
    costs["core.quantizer.dequantize_us"] = (
        median_seconds(lambda: [quantizer.dequantize(y) for y in quantized])
        * us
    )

    def decode_payload():
        decoder = PacketPayloadDecoder(config, codebook=codebook)
        for packet in packets:
            decoder.decode_payload(packet)

    costs["core.decoder.payload_us"] = median_seconds(decode_payload) * us

    def recovery(fec: bool) -> StreamRecovery:
        return StreamRecovery(
            SequenceTracker(),
            PacketPayloadDecoder(config, codebook=codebook),
            fec=fec,
            nack_budget=NACK_BUDGET,
        )

    def admit():
        machine = recovery(prepared.workload.lossy)
        for body in bodies:
            machine.on_packet(body)

    costs["ingest.channel.admit_us"] = median_seconds(admit) * us

    stats = observed.link_stats[0] if observed.link_stats else None
    if stats is not None:
        delivered = stats.delivered_frames

        def recover():
            machine = recovery(True)
            for kind, body in delivered:
                if kind == int(FrameKind.PARITY):
                    machine.on_parity(body)
                else:
                    machine.on_packet(body)

        costs["ingest.channel.recover_us"] = (
            median_seconds(recover) * 1e6 / max(len(delivered), 1)
        )
    else:
        costs["ingest.channel.recover_us"] = 0.0

    phi = SparsePhiApply(
        SparseBinaryMatrix(config.m, config.n, d=config.d, seed=config.seed)
    )
    rng = np.random.default_rng(0)
    block = rng.standard_normal((config.n, spec.BATCH_SIZE))
    loops = 50
    costs["solvers.phi_apply_us"] = (
        median_seconds(lambda: [phi.apply(block) for _ in range(loops)])
        * 1e6
        / loops
    )
    transform = WaveletTransform(config.n, config.wavelet, config.levels)
    costs["wavelet.synthesis_us_per_window"] = (
        median_seconds(
            lambda: [transform.inverse_batch(block) for _ in range(loops)]
        )
        * 1e6
        / loops
        / spec.BATCH_SIZE
    )

    width = max(1, round(statistics.mean(replay.widths or [spec.BATCH_SIZE])))
    task = solve_task(
        config,
        prepared.workload.backend,
        rng.standard_normal((config.m, width)),
    )
    costs["fleet.engine.handoff_bytes_per_window"] = (
        len(pickle.dumps(task)) / width
    )
    costs["fleet.engine.handoff_us_per_window"] = (
        median_seconds(
            lambda: [pickle.loads(pickle.dumps(task)) for _ in range(loops)]
        )
        * 1e6
        / loops
        / width
    )
    costs["fleet.engine.solve_ms_per_window"] = (
        1e3 * replay.seconds / max(replay.windows, 1)
    )
    costs["solvers.us_per_iteration"] = (
        1e6 * replay.seconds / max(replay.iterations, 1)
    )

    registry = MetricsRegistry()

    def observe():
        for _ in range(OBSERVE_CALLS):
            registry.observe("ingest_solve_seconds", 0.0125)

    costs["telemetry.observe_ns"] = (
        median_seconds(observe) * 1e9 / OBSERVE_CALLS
    )
    costs["telemetry.snapshot_ms"] = (
        median_seconds(observed.telemetry.snapshot) * 1e3
    )
    return costs
