"""Command-line interface: run the paper's experiments from a shell.

Installed as ``repro-ecg``::

    repro-ecg quickstart --cr 50 --record 100
    repro-ecg fleet --streams 8 --batch-size 32 --groups 4 --fleet-workers 4
    repro-ecg serve --port 9765 --flush-ms 250 --fleet-workers 2
    repro-ecg serve --metrics-port 9100 --metrics-file ring.jsonl
    repro-ecg serve --simulate 4 --packets 6     # self-contained demo
    repro-ecg sweep --figure fig7 --records 3 --packets 6
    repro-ecg fig8
    repro-ecg budget
    repro-ecg simd
    repro-ecg records
    repro-ecg lint

Every subcommand prints the same tables the benchmarks assert on, sized
by ``--records``/``--packets`` so a laptop run stays interactive.
``serve`` runs the live ingestion gateway (:mod:`repro.ingest`) — with
``--simulate N`` it also spawns N in-process node clients over real TCP
and exits when they finish.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence

from .config import SystemConfig
from .core import EcgMonitorSystem
from .core.decoder import BACKENDS
from .ecg import RECORD_NAMES, SyntheticMitBih
from .errors import ConfigurationError
from .experiments import (
    render_table,
    run_encoder_budget,
    run_fig2,
    run_fig6,
    run_fig7,
    run_fig8,
    run_simd_ablation,
)

_FIGURES = ("fig2", "fig6", "fig7")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ecg",
        description=(
            "Reproduction of 'A Real-Time Compressed Sensing-Based "
            "Personal Electrocardiogram Monitoring System' (DATE 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quick = sub.add_parser("quickstart", help="compress one record and report metrics")
    quick.add_argument("--record", default="100", choices=list(RECORD_NAMES))
    quick.add_argument("--cr", type=float, default=50.0, help="nominal CR percent")
    quick.add_argument("--packets", type=int, default=8)
    quick.add_argument("--duration", type=float, default=40.0)
    quick.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "decode this many windows per batched-FISTA call "
            "(default: serial reference decode, one window at a time)"
        ),
    )

    sweep = sub.add_parser("sweep", help="regenerate a figure's series")
    sweep.add_argument("--figure", choices=_FIGURES, default="fig7")
    sweep.add_argument("--records", type=int, default=3)
    sweep.add_argument("--packets", type=int, default=6)
    sweep.add_argument("--duration", type=float, default=40.0)

    fleet = sub.add_parser(
        "fleet",
        help="decode many simulated node streams through the fleet scheduler",
    )
    fleet.add_argument(
        "--streams",
        type=int,
        default=4,
        help="number of concurrent node streams (one record each)",
    )
    fleet.add_argument("--packets", type=int, default=8)
    fleet.add_argument("--cr", type=float, default=50.0)
    fleet.add_argument("--duration", type=float, default=40.0)
    fleet.add_argument(
        "--groups",
        type=int,
        default=1,
        help=(
            "distinct sensing seeds across the fleet (1 = the paper's "
            "shared fixed matrix; workers shard within a group too)"
        ),
    )
    fleet.add_argument(
        "--batch-size",
        type=int,
        default=32,
        help="target solve width, filled across streams per operator group",
    )
    fleet.add_argument(
        "--fleet-workers",
        type=int,
        default=None,
        help=(
            "solve every operator group's batches on this many "
            "processes, one batch per task, each running BLAS on one "
            "thread (default: one per usable CPU when a group is "
            "float64/float32, a single process for hybrid only; 0/1: "
            "a single process). A value >= 2 falls back to a single "
            "process — with a warning naming the reason — when the "
            "whole run is a single batch, or when the platform cannot "
            "start a process pool"
        ),
    )
    fleet.add_argument(
        "--precision",
        choices=BACKENDS,
        default="float64",
        help=(
            "decode backend: float64 (reference), float32, or hybrid — "
            "float32 ADMM with a sparse scatter/gather residual gate "
            "and per-column float64 polish when a window leaves the "
            "fig-6 PRD corridor"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the live ingestion gateway: accept node connections "
            "over TCP and decode their packet streams in real time"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="listen address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=9765,
        help="TCP port to listen on (0 = OS-assigned)",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=16,
        help=(
            "target solve width; batches fill across all connected "
            "streams sharing one sensing operator"
        ),
    )
    serve.add_argument(
        "--flush-ms",
        type=float,
        default=250.0,
        help=(
            "flush deadline: an idle solver takes whatever is pending "
            "at once, so this only bounds how many ms after arrival a "
            "window waits while another operator group's solve runs "
            "(finite, > 0)"
        ),
    )
    serve.add_argument(
        "--fleet-workers",
        type=int,
        default=None,
        help=(
            "solve flushed batches on this many worker processes, "
            "each running BLAS on one thread (default: in-process, "
            "one solve per CPU that BLAS leaves free - one at a time "
            "unless BLAS runs on one thread, e.g. "
            "OPENBLAS_NUM_THREADS=1 - and one per gateway with "
            "--gateways > 1; 0/1: in-process, one at a time)"
        ),
    )
    serve.add_argument(
        "--simulate",
        type=int,
        default=0,
        metavar="N",
        help=(
            "demo/bench mode: spawn N simulated node clients over TCP "
            "against this gateway, print their latency table, and exit "
            "(0 = serve until interrupted)"
        ),
    )
    serve.add_argument(
        "--packets",
        type=int,
        default=6,
        help="windows each simulated node streams (with --simulate)",
    )
    serve.add_argument(
        "--cr", type=float, default=50.0, help="nominal CR of simulated nodes"
    )
    serve.add_argument(
        "--precision",
        choices=BACKENDS,
        default="float64",
        help=(
            "decode backend simulated nodes request in their handshake "
            "(with --simulate): float64, float32, or the hybrid "
            "float32-fast/float64-polish path"
        ),
    )
    serve.add_argument(
        "--interval-ms",
        type=float,
        default=100.0,
        help=(
            "pacing between a simulated node's packets, in ms "
            "(0 = as fast as the link accepts; the true node rate is "
            "one packet per 2000 ms)"
        ),
    )
    federation = serve.add_argument_group(
        "multi-gateway federation",
        description=(
            "scale the ingest tier across gateway worker processes: a "
            "consistent-hash front door routes each node link by its "
            "operator key, so every operator group's shared sensing "
            "precompute and cross-stream batching stay on one gateway; "
            "a dead gateway's ring segment (and only that segment) is "
            "remapped to the survivors"
        ),
    )
    federation.add_argument(
        "--gateways",
        type=int,
        default=1,
        help=(
            "gateway worker processes behind the consistent-hash "
            "front door (1 = single in-process gateway, the exact "
            "pre-federation code path)"
        ),
    )
    federation.add_argument(
        "--groups",
        type=int,
        default=1,
        help=(
            "distinct operator groups the simulated nodes spread "
            "across (with --simulate): nodes of one group share a "
            "sensing seed, so their windows pool into shared batches "
            "on whichever gateway the ring places the group"
        ),
    )
    telemetry = serve.add_argument_group(
        "telemetry",
        description=(
            "the gateway publishes every counter/latency through the "
            "unified telemetry plane (repro.telemetry); these flags "
            "turn on its persistent sinks"
        ),
    )
    telemetry.add_argument(
        "--metrics-file",
        default=None,
        metavar="PATH",
        help=(
            "append telemetry snapshots to this bounded JSONL ring "
            "file (compacts itself; replay restores the newest "
            "snapshot after a crash)"
        ),
    )
    telemetry.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve the Prometheus text exposition on this HTTP port "
            "(0 = OS-assigned; any GET answers with the current "
            "registry)"
        ),
    )
    telemetry.add_argument(
        "--metrics-interval",
        type=float,
        default=5.0,
        help="seconds between ring-file snapshot appends",
    )
    channel = serve.add_argument_group(
        "lossy channel simulation (with --simulate)",
        description=(
            "impair each simulated node's radio link at the given "
            "per-frame probabilities; the gateway recovers via "
            "keyframe resync and accounts every damaged window "
            "(lost/resynced/corrupt/dup columns in the table)"
        ),
    )
    channel.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="probability a PACKET frame is dropped",
    )
    channel.add_argument(
        "--reorder",
        type=float,
        default=0.0,
        help="probability a PACKET frame is delivered late (reordered)",
    )
    channel.add_argument(
        "--dup",
        type=float,
        default=0.0,
        help="probability a PACKET frame is delivered twice",
    )
    channel.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        help="probability one payload bit is flipped (CRC-detectable)",
    )
    channel.add_argument(
        "--fec",
        action="store_true",
        help=(
            "enable two-tier recovery: nodes emit one XOR parity "
            "frame per keyframe epoch (single-loss repair, zero "
            "round trips) and answer gateway NACKs with "
            "retransmissions for multi-loss epochs"
        ),
    )

    fig8 = sub.add_parser("fig8", help="simulate the real-time pipeline")
    fig8.add_argument("--cr", type=float, default=50.0)
    fig8.add_argument("--packets", type=int, default=10)
    fig8.add_argument("--duration", type=float, default=120.0)

    sub.add_parser("budget", help="node-side timing/memory/energy table")
    sub.add_parser("simd", help="Figures 3-5 SIMD ablation tables")
    sub.add_parser("records", help="list the synthetic corpus")

    lint = sub.add_parser(
        "lint",
        help="static invariant checks (repro-lint, rules RL001-RL010)",
        description=(
            "Run repro-lint over the source tree.  All arguments are "
            "forwarded to python -m repro.analysis; see "
            "'repro-ecg lint -- --help' for its options."
        ),
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        metavar="...",
        help="arguments forwarded to python -m repro.analysis",
    )
    return parser


def _at_least(low: int) -> tuple[Callable[[float], bool], str]:
    return (lambda value: value >= low), f">= {low}"


_FINITE_POSITIVE = (lambda value: 0.0 < value < math.inf), "finite and > 0"
_PORT = (lambda value: 0 <= value <= 65535), "a port in [0, 65535]"

#: the valid range of every numeric flag no library code checks, by
#: argparse ``dest``; checked before dispatch, so a bad value is one
#: stderr line and exit 2, never a traceback or a half-started
#: gateway.  An omitted optional flag (``None``) is not checked.  The
#: rest (``--cr``, ``--batch-size``, ``--flush-ms``, ``--fleet-workers``,
#: ``--gateways``, the channel rates) are checked by the constructor
#: that owns them, whose :class:`ConfigurationError` :func:`main` turns
#: into the same one line and exit 2.
RANGES: dict[str, tuple[Callable[[float], bool], str]] = {
    "duration": _FINITE_POSITIVE,
    "packets": _at_least(1),
    "records": _at_least(1),
    "streams": _at_least(1),
    "groups": _at_least(1),
    "simulate": _at_least(0),
    "port": _PORT,
    "metrics_port": _PORT,
    "interval_ms": (
        (lambda value: 0.0 <= value < math.inf),
        "finite and >= 0",
    ),
    "metrics_interval": _FINITE_POSITIVE,
}


def _out_of_range(args: argparse.Namespace) -> str | None:
    """The first numeric flag outside its :data:`RANGES` entry, as
    one message, else ``None``."""
    for dest, (valid, requirement) in RANGES.items():
        value = getattr(args, dest, None)
        if value is not None and not valid(value):
            flag = "--" + dest.replace("_", "-")
            return f"{flag} must be {requirement}, got {value:g}"
    return None


def _cmd_quickstart(args: argparse.Namespace) -> int:
    config = SystemConfig().with_target_cr(args.cr)
    database = SyntheticMitBih(duration_s=args.duration)
    record = database.load(args.record)
    system = EcgMonitorSystem(config)
    system.calibrate(record)
    stream = system.stream(
        record, max_packets=args.packets, batch_size=args.batch_size
    )
    engine = (
        f"batched x{args.batch_size}"
        if args.batch_size is not None and args.batch_size > 1
        else "serial"
    )
    row = {
        "record": args.record,
        "rhythm": record.rhythm,
        "engine": engine,
        "packets": stream.num_packets,
        "measured_cr": stream.compression_ratio_percent,
        "prd_percent": stream.mean_prd_percent,
        "snr_db": stream.mean_snr_db,
        "iterations": stream.mean_iterations,
        "decode_ms": 1000.0 * stream.mean_decode_seconds,
    }
    print(render_table([row], title=f"quickstart @ nominal CR {args.cr:.0f} %"))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import time

    from .fleet import FleetDecoder, StreamTask

    decoder = FleetDecoder(
        batch_size=args.batch_size, workers=args.fleet_workers
    )
    base = SystemConfig().with_target_cr(args.cr)
    database = SyntheticMitBih(duration_s=args.duration)
    names = [
        list(RECORD_NAMES)[i % len(RECORD_NAMES)] for i in range(args.streams)
    ]
    # --groups 1: every node ships the paper's shared fixed matrix ->
    # one operator group, the engine pools all streams into joint
    # solves; --groups >= 2 spreads seeds over that many operators
    tasks = []
    for index, name in enumerate(names):
        record = database.load(name)
        system = EcgMonitorSystem(
            base.replace(seed=base.seed + index % args.groups),
            precision=args.precision,
        )
        system.calibrate(record)
        tasks.append(
            StreamTask(system=system, record=record, max_packets=args.packets)
        )

    started = time.perf_counter()
    results = decoder.run(tasks)
    elapsed = time.perf_counter() - started

    rows = [
        {
            "stream": index,
            "record": name,
            "packets": result.num_packets,
            "measured_cr": result.compression_ratio_percent,
            "prd_percent": result.mean_prd_percent,
            "iterations": result.mean_iterations,
            "decode_ms": 1000.0 * result.mean_decode_seconds,
        }
        for index, (name, result) in enumerate(zip(names, results))
    ]
    # report what actually ran: the engine owns the fallback decision
    # (and warns with the reason when a workers>=2 request fell back)
    groups = decoder.last_num_groups
    mode = (
        f"{decoder.last_effective_workers} workers (columns)"
        if decoder.last_effective_workers > 1
        else "single process"
    )
    total_windows = sum(r.num_packets for r in results)
    print(
        render_table(
            rows,
            title=(
                f"fleet decode: {args.streams} streams, {groups} operator "
                f"group(s), batch {args.batch_size}, {mode}"
            ),
        )
    )
    print(
        f"decoded {total_windows} windows in {elapsed:.3f} s "
        f"({total_windows / elapsed:.1f} windows/s)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .ingest import FederationFrontDoor, IngestGateway, LossyChannel
    from .ingest.simulate import node_rows, simulated_nodes
    from .telemetry import (
        JsonlRingSink,
        MetricsRegistry,
        published,
        render_snapshot_table,
    )

    channel = LossyChannel(
        loss=args.loss,
        reorder=args.reorder,
        duplicate=args.dup,
        corrupt=args.corrupt,
    )
    if not args.simulate and (args.groups > 1 or channel.impairs):
        # a plain serve would silently ignore them
        print(
            "--groups/--loss/--reorder/--dup/--corrupt shape the "
            "*simulated* nodes and need --simulate N",
            file=sys.stderr,
        )
        return 2
    registry = MetricsRegistry()
    options = dict(
        batch_size=args.batch_size,
        flush_ms=args.flush_ms,
        workers=args.fleet_workers,
        telemetry=registry,
    )
    if args.gateways != 1:
        # the front door owns the public port and routes each node
        # link by operator key to one of N gateway worker processes
        # (and refuses a count below 1)
        gateway = FederationFrontDoor(gateways=args.gateways, **options)
        mode = f"{args.gateways}-gateway federation"
    else:
        gateway = IngestGateway(**options)
        mode = (
            f"{gateway.workers} worker processes"
            if gateway.workers > 1
            else "in-process"
        )
    nodes = simulated_nodes(
        args.simulate,
        packets=args.packets,
        cr=args.cr,
        precision=args.precision,
        groups=args.groups,
        interval_s=args.interval_ms / 1000.0,
        channel=channel,
        fec=args.fec,
        telemetry=registry,
    )
    if args.simulate > len(RECORD_NAMES):
        # stream identity is record:channel, so once the corpus wraps
        # the per-stream series merge the nodes sharing a record
        print(
            f"note: {args.simulate} nodes over a {len(RECORD_NAMES)}-record "
            f"corpus: per-stream telemetry merges nodes sharing a record "
            f"(per-session rows stay exact)",
            file=sys.stderr,
        )
    ring = (
        JsonlRingSink(args.metrics_file)
        if args.metrics_file is not None
        else None
    )
    batching = f"batch {args.batch_size}, flush {args.flush_ms:.0f} ms"

    async def _run() -> list:
        port = await gateway.start(args.host, args.port)
        async with published(
            registry,
            args.host,
            port=args.metrics_port,
            ring=ring,
            interval_s=args.metrics_interval,
        ) as metrics_port:
            if metrics_port is not None:
                print(
                    f"metrics exposition on "
                    f"http://{args.host}:{metrics_port}/metrics"
                )
            if ring is not None:
                print(f"metrics ring file: {ring.path}")
            try:
                if not nodes:
                    print(
                        f"ingest gateway listening on {args.host}:{port} "
                        f"({batching}, {mode} decode); Ctrl-C to stop"
                    )
                    await asyncio.Event().wait()
                return await asyncio.gather(
                    *[node.run_tcp(args.host, port) for node in nodes],
                    return_exceptions=True,
                )
            finally:
                await gateway.close()

    try:
        outcomes = asyncio.run(_run())
    except KeyboardInterrupt:
        print("gateway stopped")
        return 0
    failures = [o for o in outcomes if isinstance(o, BaseException)]
    for failure in failures:
        print(f"node client failed: {failure}", file=sys.stderr)
    reports = [o for o in outcomes if not isinstance(o, BaseException)]
    if not reports:
        return 1
    title = f"live gateway: {args.simulate} nodes over TCP, {batching}"
    if args.gateways > 1:
        title += f", {args.gateways}-gateway federation"
    if args.groups > 1:
        title += f", {args.groups} operator groups"
    if channel.impairs:
        title += (
            f", channel loss={args.loss:g} reorder={args.reorder:g} "
            f"dup={args.dup:g} corrupt={args.corrupt:g}"
        )
    if args.fec:
        title += ", fec on"
    rows = node_rows(reports, gateway.results)
    print(render_table(rows, title=title))
    print(render_snapshot_table(registry.snapshot(), title="telemetry"))
    return 1 if failures or any(report.error for report in reports) else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    database = SyntheticMitBih(duration_s=args.duration)
    records = database.subset(args.records)
    driver = {"fig2": run_fig2, "fig6": run_fig6, "fig7": run_fig7}[args.figure]
    rows = driver(
        records=records,
        packets_per_record=args.packets,
        database=database,
    )
    print(render_table(rows, title=f"{args.figure} series"))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    database = SyntheticMitBih(duration_s=max(args.duration / 4.0, 24.0))
    report, summary = run_fig8(
        nominal_cr=args.cr,
        packets=args.packets,
        duration_s=args.duration,
        database=database,
    )
    print(render_table([summary], title="figure 8: real-time claims"))
    print(
        render_table(
            [
                {
                    "buffer_min_s": report.buffer_min_s,
                    "buffer_max_s": report.buffer_max_s,
                    "latency_s": report.mean_end_to_end_latency_s,
                }
            ],
            title="pipeline detail",
        )
    )
    return 0


def _cmd_budget(_: argparse.Namespace) -> int:
    budget = run_encoder_budget()
    headline = {
        "sensing_ms": budget["sensing_time_ms"],
        "encode_ms": budget["encode_time_ms"],
        "node_cpu_percent": budget["node_cpu_percent"],
        "ram_bytes": budget["ram_bytes"],
        "flash_bytes": budget["flash_bytes"],
    }
    print(render_table([headline], title="node budget"))
    print(render_table(budget["approaches"], title="sensing approaches"))
    print(render_table(budget["lifetime"], title="lifetime extension vs CR"))
    return 0


def _cmd_simd(_: argparse.Namespace) -> int:
    ablation = run_simd_ablation()
    print(render_table(ablation["fig3"], title="figure 3: leftover strategies"))
    print(render_table([ablation["fig4"]], title="figure 4: if-conversion"))
    print(render_table(ablation["fig5"], title="figure 5: loop nests"))
    print(render_table(ablation["iteration_kernels"], title="per-kernel cycles"))
    summary = {
        "speedup": ablation["speedup_at_1000_iters"],
        "cap_scalar": ablation["max_iterations_scalar"],
        "cap_neon": ablation["max_iterations_neon"],
    }
    print(render_table([summary], title="section V"))
    return 0


def _cmd_records(_: argparse.Namespace) -> int:
    database = SyntheticMitBih(duration_s=10.0)
    rows = []
    for name in RECORD_NAMES:
        record = database.load(name)
        rows.append(
            {
                "record": name,
                "rhythm": record.rhythm,
                "beats": len(record.annotations),
                "channels": record.num_channels,
            }
        )
    print(render_table(rows, title="synthetic MIT-BIH-like corpus (48 records)"))
    return 0


def _cmd_lint(forwarded: list[str]) -> int:
    from .analysis.runner import main as lint_main

    if forwarded[:1] == ["--"]:
        forwarded = forwarded[1:]
    return lint_main(forwarded)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw[:1] == ["lint"]:
        # forwarded verbatim: argparse's REMAINDER mis-parses leading
        # optionals (bpo-17050), so lint options never cross the
        # repro-ecg parser
        return _cmd_lint(raw[1:])
    args = _build_parser().parse_args(raw)
    problem = _out_of_range(args)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    handlers = {
        "quickstart": _cmd_quickstart,
        "fleet": _cmd_fleet,
        "serve": _cmd_serve,
        "sweep": _cmd_sweep,
        "fig8": _cmd_fig8,
        "budget": _cmd_budget,
        "simd": _cmd_simd,
        "records": _cmd_records,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        # a library range check: one stderr line, never a traceback
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
