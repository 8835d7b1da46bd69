"""The serving stack's settable surface, pinned.

The option audit (ROADMAP open item 2) turned every one-value knob
into a module constant and made the federation forward the gateway's
options instead of re-declaring them.  These lists are the result: a
parameter that comes back, or a new one, fails here and has to be
argued for against the rule the audit applied — two callers or
workloads outside ``tests/`` and ``examples/`` that need different
values.  Beside them, the field sets stage 3 and a stream hand back
are pinned the same way: a field comes back only with a reader outside
``tests/``, and a fact is kept in one record.
So are the flags of ``repro-ecg serve`` and ``repro-ecg fleet``: a
value that only a test sets is a module constant, not a flag.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import inspect
import json

import repro.ingest
from repro.analysis.runner import _build_parser
from repro.cli import _build_parser as _build_cli_parser
from repro.core import (
    DecodedPacket,
    EcgMonitorSystem,
    MultiChannelMonitor,
    StreamResult,
)
from repro.ingest import (
    FederationFrontDoor,
    FrameKind,
    Handshake,
    IngestGateway,
    IngestStreamResult,
    LinkStats,
    NodeClient,
    NodeReport,
    encode_frame,
    encoded_packets,
    read_frame,
)
from repro.fleet import FleetDecoder
from repro.ingest.gateway import WINDOW_LISTS
from repro.realtime import MonitorPipeline, Processor
from repro.solvers.batched import (
    BatchedFista,
    BatchedSolverResult,
    HybridSolveResult,
    batched_admm,
    batched_fista,
    structured_batched_fista,
)
from repro.solvers.sparse_apply import SparsePhiApply


def _parameters(function) -> list[str]:
    return [
        name
        for name in inspect.signature(function).parameters
        if name != "self"
    ]


def test_ingest_gateway_options():
    assert _parameters(IngestGateway.__init__) == [
        "batch_size",
        "flush_ms",
        "workers",
        "telemetry",
        "session_id_base",
    ]


def test_federation_front_door_declares_only_its_own_options():
    signature = inspect.signature(FederationFrontDoor.__init__)
    assert _parameters(FederationFrontDoor.__init__) == [
        "gateways",
        "telemetry",
        "gateway_options",
    ]
    # everything else is the gateway's, forwarded untouched
    forwarded = signature.parameters["gateway_options"]
    assert forwarded.kind is inspect.Parameter.VAR_KEYWORD


def test_node_client_options():
    assert _parameters(NodeClient.__init__) == [
        "system",
        "record",
        "channel",
        "max_packets",
        "interval_s",
        "lossy_channel",
        "telemetry",
        "fec",
        "reconnect",
    ]


def test_fleet_decoder_options():
    """The decoder publishes to its own ``telemetry`` registry, which
    its caller reads; no caller outside ``tests/`` passes one in."""
    assert _parameters(FleetDecoder.__init__) == ["batch_size", "workers"]


def test_realtime_pipeline_options():
    """The fig-8 simulator reports through ``PipelineReport`` and the
    processors' own ledgers; it publishes no telemetry series."""
    assert _parameters(MonitorPipeline.__init__) == [
        "config",
        "node_model",
        "phone_model",
        "radio",
    ]
    assert _parameters(Processor.__init__) == []


def test_hybrid_solve_options():
    solve = ["ys", "fractions", "max_iterations", "tolerance"]
    assert _parameters(BatchedFista.solve_structured) == solve
    assert _parameters(structured_batched_fista) == ["structure", *solve]


def test_batched_solve_options():
    """Each solve allocates its own scratch, so no solve or ``Phi``
    kernel takes a caller's buffers; only the hybrid polish warm-starts
    a solve, through ``batched_fista``'s ``x0``."""
    stop = ["max_iterations", "tolerance"]
    assert _parameters(BatchedFista.solve) == ["ys", "lams", *stop]
    assert _parameters(batched_fista) == [
        "a",
        "ys",
        "lams",
        *stop,
        "lipschitz",
        "x0",
        "operator_t",
    ]
    assert _parameters(batched_admm) == [
        "structure",
        "ys",
        "lams",
        "rho",
        *stop,
    ]
    assert _parameters(SparsePhiApply.apply) == ["signals"]
    assert _parameters(SparsePhiApply.residual) == ["signals", "ys"]


def _fields(cls) -> list[str]:
    return [field.name for field in dataclasses.fields(cls)]


def test_stage3_result_fields():
    """What stage 3 hands back: fields a caller outside ``tests/`` reads
    (samples, iterations, polish, timing), plus ``converged``, kept as a
    test and diagnostic flag that no production path reads.  A residual,
    a stop reason or a per-window coefficient copy that comes back has
    to name its reader."""
    assert _fields(BatchedSolverResult) == [
        "coefficients",
        "iterations",
        "converged",
    ]
    assert _fields(HybridSolveResult) == [
        "signals",
        "iterations",
        "converged",
        "polished",
    ]
    assert _fields(DecodedPacket) == [
        "sequence",
        "samples_adu",
        "iterations",
        "converged",
        "decode_seconds",
    ]


def test_handshake_and_link_fields():
    """The wire speaks one protocol version, so a ``HELLO`` carries no
    version field of its own; a lossy link keeps only the per-frame
    records no ``link_frames{fate}`` counter holds."""
    assert _fields(Handshake) == [
        "record",
        "channel",
        "config",
        "codebook",
        "precision",
        "fec",
        "resume",
        "resumed",
    ]
    assert _fields(LinkStats) == [
        "dropped_sequences",
        "delivered_frames",
        "fate_log",
    ]


def test_ingest_exports_no_aggregate_read_model():
    """The registry is the one aggregate view of the counts."""
    gone = {
        "GatewayStats",
        "FederationStats",
        "gateway_stats_from",
        "SUPPORTED_VERSIONS",
    }
    assert not gone & set(repro.ingest.__all__)
    assert not any(hasattr(repro.ingest, name) for name in gone)


def _decoded_ack(config, record) -> dict:
    """The body of the one ``DECODED`` ack a one-window loopback
    stream gets back."""
    system = EcgMonitorSystem(config)
    system.calibrate(record)

    async def run():
        gateway = IngestGateway(batch_size=1)
        reader, writer = gateway.connect_local()
        writer.write(
            Handshake(
                record=record.name,
                channel=0,
                config=config,
                codebook=system.encoder.codebook,
            ).to_frame()
        )
        (packet,) = encoded_packets(system, record, max_packets=1)
        writer.write(encode_frame(FrameKind.PACKET, packet.to_bytes()))
        writer.write(encode_frame(FrameKind.BYE))
        acks = []
        while (frame := await read_frame(reader)) is not None:
            if frame[0] is FrameKind.DECODED:
                acks.append(json.loads(frame[1]))
        await gateway.close()
        return acks

    (ack,) = asyncio.run(run())
    return ack


def test_stream_result_fields(small_config, database):
    """What a stream hands back, one record per fact.  A window's
    latency is in its ``DECODED`` ack and the
    ``ingest_window_latency_seconds`` histogram, its solve time in
    ``ingest_stage_seconds{stage="solve"}``, and channel damage in the gateway's
    result and ``ingest_*`` counters, so none of them is copied into
    another record.  Fields that no code outside ``tests/`` reads stay
    for a reason:

    - ``IngestStreamResult.clean_close``: the only record that a
      stream ended without a ``BYE``;
    - ``StreamResult.original_adu``: the reference signal the
      diagnostic tests of ROADMAP item 5 build on;
    - ``NodeReport``'s wire-byte counters (``packet_bytes``,
      ``parity_bytes``, ``retransmit_bytes``, ``retransmits_sent``,
      ``retransmit_misses``): the node's own count of what it put on
      the air, which no other record in the program holds.
    """
    assert _fields(IngestStreamResult) == [
        # inherited LossAccounting
        "windows_lost",
        "windows_resynced",
        "frames_corrupt",
        "frames_duplicate",
        "windows_recovered_parity",
        "windows_recovered_retransmit",
        "frames_late_retransmit",
        "session_id",
        "record",
        "channel",
        "clean_close",
        "error",
        "opened_unix",
        "resumed",
        "indices",
        "sequences",
        "iterations",
        "samples_adu",
        "nacks_sent",
    ]
    assert WINDOW_LISTS == (
        "indices",
        "sequences",
        "iterations",
        "samples_adu",
    )
    assert _fields(StreamResult) == [
        "record",
        "channel",
        "config",
        "packets",
        "original_adu",
        "reconstructed_adu",
    ]
    assert _fields(NodeReport) == [
        "record",
        "channel",
        "stream_id",
        "sent",
        "acked",
        "error",
        "gateway_latencies_ms",
        "iterations",
        "packet_bytes",
        "parity_bytes",
        "retransmit_bytes",
        "retransmits_sent",
        "retransmit_misses",
        "reconnects",
    ]
    assert _parameters(MultiChannelMonitor.stream) == [
        "record",
        "max_packets",
        "keep_signals",
        "batch_size",
    ]
    ack = _decoded_ack(small_config, database.load("100"))
    assert set(ack) == {"sequence", "iterations", "latency_ms"}


def _long_flags(parser: argparse.ArgumentParser) -> list[str]:
    return sorted(
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    )


def _subcommand_flags(name: str) -> list[str]:
    subparsers = next(
        action
        for action in _build_cli_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return _long_flags(subparsers.choices[name])


def test_serve_flags():
    assert _subcommand_flags("serve") == [
        "--batch-size",
        "--corrupt",
        "--cr",
        "--dup",
        "--fec",
        "--fleet-workers",
        "--flush-ms",
        "--gateways",
        "--groups",
        "--host",
        "--interval-ms",
        "--loss",
        "--metrics-file",
        "--metrics-interval",
        "--metrics-port",
        "--packets",
        "--port",
        "--precision",
        "--reorder",
        "--simulate",
    ]


def test_fleet_flags():
    assert _subcommand_flags("fleet") == [
        "--batch-size",
        "--cr",
        "--duration",
        "--fleet-workers",
        "--groups",
        "--packets",
        "--precision",
        "--streams",
    ]


def test_repro_lint_flags():
    assert _long_flags(_build_parser()) == [
        "--format",
        "--list-rules",
        "--report",
        "--root",
        "--select",
    ]
