"""Names, units, bounds and workload parameters of the benchmark.

The single place the workloads and metrics are declared.  The root
``BENCHMARK.json`` is this table restricted to what its contract can
hold (``test_e2e_smoke.py`` pins that the two agree); ``README.md`` is
the prose glossary.  Stdlib-only: the runner imports this without
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the paper's real-time budget: one 2 s window decoded inside 2 s
BUDGET_MS = 2000.0
#: a paced run whose generator was later than this at p95 is invalid
MAX_LAG_P95_MS = 10.0
#: children of the ``window`` root span must cover it to within this
MAX_UNATTRIBUTED = 0.05
#: gateway settings shared by every live workload
BATCH_SIZE = 16
FLUSH_MS = 250.0
#: one node link per record (2 <= nproc connections on the 2-core
#: reference box)
RECORDS = ("100", "119")
#: seconds one full-size repeat of a paced workload sends for
#: (256 windows at 8 windows/s); ``--seconds`` shrinks every
#: workload's window count by ``seconds / repeats / FULL_SECONDS``
FULL_SECONDS = 32.0
#: per-link window counts are kept whole keyframe epochs (= one
#: full-width batch), so offline batches align with the serial
#: reference and every parity epoch is complete
WINDOW_QUANTUM = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # decode backend: "hybrid" | "float64"
    windows: int  # per link, at full size
    rate: float  # windows/s per link; 0 = unpaced
    live: bool = True  # through the TCP gateway (False: FleetDecoder)
    lossy: bool = False  # LossyChannel(loss=0.05, reorder=0.1) + fec


WORKLOADS = (
    Workload(
        "saturate",
        "unpaced closed loop, every batch fills to 16 and the solve is "
        "~95% of the work: the capacity number, where a solver or "
        "kernel change shows",
        backend="hybrid",
        windows=1024,
        rate=0.0,
    ),
    Workload(
        "paced",
        "open loop at 8 windows/s per link (~25% of capacity): batches "
        "flush on the 250 ms deadline at width ~4, so batching and "
        "flush policy dominate latency, not the solver",
        backend="hybrid",
        windows=256,
        rate=8.0,
    ),
    Workload(
        "lossy_fec",
        "paced through a 5% loss / 10% reorder link with fec on: same "
        "solver work, only ingest.channel hold/parity/NACK recovery "
        "differs",
        backend="hybrid",
        windows=256,
        rate=8.0,
        lossy=True,
    ),
    Workload(
        "offline_ref64",
        "FleetDecoder batch job on the frozen float64 reference, no "
        "socket or queue: shows a hybrid-only or live-only gain that "
        "costs the offline path",
        backend="float64",
        windows=480,
        rate=0.0,
        live=False,
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}
ALL = tuple(w.name for w in WORKLOADS)
PACED = ("paced", "lossy_fec")
BATCH = ("saturate", "offline_ref64")

#: Paced windows are due at ``(k + JITTER + u_k) / rate`` with ``u_k``
#: uniform in ``[-JITTER, JITTER]``, seeded per link from ``--seed``:
#: still an absolute schedule at exactly the stated mean rate.  An
#: unjittered 8 windows/s is a resonance of the 250 ms flush deadline
#: (the opener's second successor is due exactly when its batch
#: flushes), so sub-millisecond scheduling noise decides whether
#: batches are 4 or 6 wide and a whole run sticks to one regime: ack
#: p50 read anywhere from 250 to 323 ms.  Independent nodes are not
#: phase-locked to the gateway's timer; the jitter makes each flush an
#: independent draw instead.
JITTER = 0.25

#: LossyChannel parameters of ``lossy_fec`` (never scaled).  The link
#: seeds are ``CHANNEL_SEED + link`` and do NOT follow ``--seed``: the
#: loss pattern is part of the workload.  Two reasons (README,
#: "Caveats"): which frames drop decides how long windows are held, so
#: a per-seed pattern makes the ack percentiles of a 32 s run
#: incomparable across seeds; and about half of all patterns lose
#: windows at full size (NACK budget spent, or a give-up drain that
#: kills the stream) where the benchmark's contract wants workloads on
#: which nothing fails.  2019/2020 recover every window at every size
#: from 16 to 256 windows per link and exercise both recovery tiers.
LOSS = 0.05
REORDER = 0.1
CHANNEL_SEED = 2019


def windows_for(workload: Workload, shrink: float) -> int:
    """Per-link window count at ``shrink`` (1.0 = full size), rounded
    up to whole keyframe epochs."""
    scaled = max(workload.windows * shrink, 1.0)
    quanta = -(-int(round(scaled)) // WINDOW_QUANTUM)
    return max(quanta, 1) * WINDOW_QUANTUM


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: regression bound: a share of the base median, or absolute units
    #: when ``absolute``; ``None`` for per-layer metrics
    bound: float | None = None
    absolute: bool = False
    #: workloads the metric is compared on (end-to-end) / the
    #: end-to-end metric and workload it should move (per-layer)
    workloads: tuple[str, ...] = ALL
    moves: str = ""
    #: listed in BENCHMARK.json ``end_to_end`` (needs a value that is
    #: never 0 on every workload)
    contract: bool = True
    #: BENCHMARK.json bound when it must differ from ``bound``: the
    #: driver varies ``--seed`` between runs, so a metric that is a
    #: function of the generated corpus needs room for that spread
    contract_bound: float | None = None


#: ``bound`` is what ``compare`` applies between two result files of
#: one seed on one box.  ``contract_bound`` is what BENCHMARK.json's
#: driver applies: it runs 18 s per invocation, each with another
#: ``--seed``, so it sees corpus-to-corpus spread (iterations per
#: window, PRD and packet sizes are functions of the corpus) on top of
#: the box's noise; ten seeds on the reference VM spread (IQR/median)
#: up to 3-5 % on the hybrid timings and, in one three-minute slow
#: spell of the box, 21 % on ``offline_ref64``.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.15, contract_bound=0.25),
    Metric(
        "windows_per_s", "1/s", "higher", 0.08, workloads=BATCH,
        contract_bound=0.25,
    ),
    Metric(
        "ack_p50_ms", "ms", "lower", 0.10, workloads=PACED,
        contract_bound=0.25,
    ),
    Metric(
        "ack_p95_ms", "ms", "lower", 0.10, workloads=PACED,
        contract_bound=0.25,
    ),
    Metric(
        "budget_miss_share", "share", "lower", 0.005, absolute=True,
        workloads=PACED, contract=False,
    ),
    Metric(
        "failed_share", "share", "lower", 0.0, absolute=True, contract=False
    ),
    Metric(
        "prd_mean_pct", "%", "lower", 0.05, absolute=True,
        contract_bound=0.10,
    ),
    Metric(
        "wire_bytes_per_window", "B", "lower", 0.005, workloads=PACED,
        contract_bound=0.06,
    ),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)


def _layer(name: str, unit: str, better: str, moves: str) -> Metric:
    return Metric(name, unit, better, moves=moves)


_STAGE12 = "<=5% of windows_per_s on saturate (stages 1-2 together); acks: none"
_CHANNEL = (
    "ack_p95_ms, failed_share, wire_bytes_per_window on lossy_fec; "
    "paced: none"
)
_GATEWAY = "ack_p50_ms/ack_p95_ms on paced, lossy_fec"
_SOLVERS = (
    "windows_per_s on saturate (~1:1), offline_ref64; solve share "
    "(~1/3) of ack_p95_ms on paced; prd_mean_pct everywhere"
)

PER_LAYER = (
    _layer("loadgen.lag_p95_ms", "ms", "lower", "validity: run invalid above 10 ms"),
    _layer("loadgen.sent", "count", "higher", "denominator of the shares"),
    _layer("loadgen.acked", "count", "higher", "failed_share"),
    _layer(
        "core.encoder.encode_us_per_window", "us", "lower",
        "setup_s on all; windows_per_s on offline_ref64 only",
    ),
    _layer("core.encoder.bits_per_window", "bits", "lower", "wire_bytes_per_window"),
    _layer("ingest.protocol.frame_us", "us", "lower", _STAGE12),
    _layer("core.packets.parse_crc_us", "us", "lower", _STAGE12),
    _layer("coding.huffman_decode_us", "us", "lower", _STAGE12),
    _layer("coding.redundancy_us", "us", "lower", _STAGE12),
    _layer("core.quantizer.dequantize_us", "us", "lower", _STAGE12),
    _layer("core.decoder.payload_us", "us", "lower", _STAGE12),
    _layer("ingest.channel.admit_us", "us", "lower", _STAGE12),
    _layer("ingest.channel.recover_us", "us", "lower", _CHANNEL),
    _layer("ingest.channel.recovered_parity", "count", "higher", _CHANNEL),
    _layer("ingest.channel.recovered_retransmit", "count", "higher", _CHANNEL),
    _layer("ingest.channel.nacks_sent", "count", "lower", _CHANNEL),
    _layer("ingest.channel.windows_lost", "count", "lower", _CHANNEL),
    _layer("ingest.channel.recovered_share", "share", "higher", _CHANNEL),
    _layer("ingest.channel.hold_p95_ms", "ms", "lower", _CHANNEL),
    _layer("ingest.gateway.queue_wait_p50_ms", "ms", "lower", _GATEWAY),
    _layer("ingest.gateway.queue_wait_p95_ms", "ms", "lower", _GATEWAY),
    _layer(
        "ingest.gateway.batch_width_mean", "count", "higher",
        _GATEWAY + "; windows_per_s on saturate (only through this)",
    ),
    _layer("ingest.gateway.flush_full_share", "share", "higher", _GATEWAY),
    _layer(
        "ingest.gateway.solver_busy_share", "share", "higher",
        "bottleneck indicator: ~0.95 on saturate, ~0.3 on paced",
    ),
    _layer("ingest.gateway.route_ack_p50_ms", "ms", "lower", _GATEWAY),
    _layer("ingest.gateway.backlog_max", "count", "lower", _GATEWAY),
    _layer(
        "fleet.engine.solve_ms_per_window", "ms", "lower",
        "windows_per_s on saturate, offline_ref64; solve share of "
        "ack_p95_ms on paced",
    ),
    _layer(
        "fleet.engine.handoff_bytes_per_window", "B", "lower",
        "none (thread executor); kept for the parked data-plane item",
    ),
    _layer(
        "fleet.engine.handoff_us_per_window", "us", "lower",
        "none (thread executor); kept for the parked data-plane item",
    ),
    _layer("solvers.iterations_per_window", "count", "lower", _SOLVERS),
    _layer("solvers.us_per_iteration", "us", "lower", _SOLVERS),
    _layer("solvers.polish_rate", "share", "lower", _SOLVERS),
    _layer("solvers.cap_hit_share", "share", "lower", _SOLVERS),
    _layer("solvers.phi_apply_us", "us", "lower", _SOLVERS),
    _layer("solvers.flops_per_window", "count", "lower", _SOLVERS),
    _layer(
        "wavelet.synthesis_us_per_window", "us", "lower",
        "windows_per_s on offline_ref64",
    ),
    _layer("telemetry.observe_ns", "ns", "lower", "windows_per_s on saturate (<1%)"),
    _layer("telemetry.snapshot_ms", "ms", "lower", "windows_per_s on saturate (<1%)"),
    _layer("trace.overhead_pct", "%", "lower", "windows_per_s traced vs untraced"),
    _layer(
        "trace.unattributed_share", "share", "lower",
        "validity: <= 0.05 on paced, lossy_fec",
    ),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The root ``BENCHMARK.json`` this table implies."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {
                "name": m.name,
                "unit": m.unit,
                "better": m.better,
                "bound": m.contract_bound or m.bound,
            }
            for m in END_TO_END
            if m.contract
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
