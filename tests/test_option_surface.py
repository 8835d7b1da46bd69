"""The serving stack's settable surface, pinned.

The option audit (ROADMAP open item 2) turned every one-value knob
into a module constant and made the federation forward the gateway's
options instead of re-declaring them.  These lists are the result: a
parameter that comes back, or a new one, fails here and has to be
argued for against the rule the audit applied — two callers or
workloads outside ``tests/`` and ``examples/`` that need different
values.  Beside them, the field sets stage 3 hands back are pinned the
same way: a field comes back only with a reader outside ``tests/``.
So are the flags of ``repro-ecg serve`` and ``repro-ecg fleet``: a
value that only a test sets is a module constant, not a flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

from repro.analysis.runner import _build_parser
from repro.cli import _build_parser as _build_cli_parser
from repro.core import DecodedPacket
from repro.ingest import (
    FederationFrontDoor,
    IngestGateway,
    NodeClient,
)
from repro.solvers.batched import (
    BatchedFista,
    BatchedSolverResult,
    HybridSolveResult,
    structured_batched_fista,
)


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


def test_hybrid_solve_options():
    solve = ["ys", "fractions", "max_iterations", "tolerance"]
    assert _parameters(BatchedFista.solve_structured) == solve
    assert _parameters(structured_batched_fista) == [
        "structure",
        *solve,
        "workspace",
    ]


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
