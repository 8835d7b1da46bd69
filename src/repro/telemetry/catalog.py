"""The metric catalog: single source of truth for every metric name.

Every counter, gauge and histogram the decode stack publishes is
declared here — name, instrument kind, allowed label names, and a
human description.  Two consumers keep the catalog honest:

- **repro-lint RL004** statically checks every ``.inc(...)`` /
  ``.set_gauge(...)`` / ``.observe(...)`` call site against this
  module: an undeclared metric name, a kind mismatch (``inc`` on a
  gauge), or a label outside the declared set fails the lint — and a
  catalog entry no call site references is flagged as dead, so the
  catalog cannot rot in either direction;
- the Prometheus exposition
  (:func:`~repro.telemetry.sinks.render_prometheus`) emits each
  declared metric's description as its ``# HELP`` line.

Adding a metric is therefore a two-line change: declare it here, then
use it — the lint tells you if you forgot either half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric family."""

    name: str
    kind: str  #: one of COUNTER / GAUGE / HISTOGRAM
    description: str
    #: every label name any series of this metric may carry (call
    #: sites and bound meters may use a subset)
    labels: frozenset[str] = field(default_factory=frozenset)


def _spec(
    name: str, kind: str, description: str, *labels: str
) -> MetricSpec:
    return MetricSpec(
        name=name,
        kind=kind,
        description=description,
        labels=frozenset(labels),
    )


#: every metric the stack publishes, keyed by name
CATALOG: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        # -- ingest gateway (repro.ingest.gateway) ---------------------
        _spec(
            "ingest_sessions_opened", COUNTER,
            "node links accepted after a valid handshake", "stream",
        ),
        _spec(
            "ingest_sessions_completed", COUNTER,
            "sessions that ended without an error", "stream",
        ),
        _spec(
            "ingest_sessions_errored", COUNTER,
            "sessions ended by a protocol/decode error "
            "(unlabeled when the handshake never completed)", "stream",
        ),
        _spec(
            "ingest_windows_decoded", COUNTER,
            "windows reconstructed and acked to their node", "stream",
        ),
        _spec(
            "ingest_flushes", COUNTER,
            "batch flushes by trigger (full/deadline/drain/idle)",
            "reason",
        ),
        _spec(
            "ingest_cross_stream_batches", COUNTER,
            "flushed batches pooling windows of >= 2 streams",
        ),
        _spec(
            "ingest_queue_depth", GAUGE,
            "pending measurement columns of one operator group",
            "group",
        ),
        _spec(
            "ingest_flush_width", HISTOGRAM,
            "distribution of flushed batch widths",
        ),
        _spec(
            "ingest_solve_seconds", HISTOGRAM,
            "wall time of one pooled batch solve",
        ),
        _spec(
            "ingest_window_latency_seconds", HISTOGRAM,
            "frame arrival to reconstruction, per window",
        ),
        _spec(
            "ingest_stage_seconds", HISTOGRAM,
            "time one window spent in a pipeline stage (hold: its "
            "frame's arrival to its release from a recovery hold; "
            "queue: pool entry to solve submit; solve: submit to the "
            "start of routing; route: routing start to its DECODED "
            "frame written)", "stage",
        ),
        # -- lossy-channel accounting (repro.ingest.channel) -----------
        _spec(
            "ingest_windows_lost", COUNTER,
            "windows that never arrived (sequence gaps incl. the "
            "BYE-declared tail gap)", "stream",
        ),
        _spec(
            "ingest_windows_resynced", COUNTER,
            "difference windows discarded while awaiting a keyframe",
            "stream",
        ),
        _spec(
            "ingest_frames_corrupt", COUNTER,
            "frames failing the on-air CRC", "stream",
        ),
        _spec(
            "ingest_frames_duplicate", COUNTER,
            "duplicate/stale frames dropped idempotently", "stream",
        ),
        # -- two-tier recovery (FEC parity epochs + NACK retransmit) ---
        _spec(
            "ingest_windows_recovered_parity", COUNTER,
            "windows reconstructed locally from an epoch PARITY frame",
            "stream",
        ),
        _spec(
            "ingest_windows_recovered_retransmit", COUNTER,
            "windows filled by a NACKed (or late-reordered) copy while "
            "recovery held the gap open", "stream",
        ),
        _spec(
            "ingest_frames_late_retransmit", COUNTER,
            "retransmitted frames arriving after recovery gave up on "
            "their window (dropped, but not silently)", "stream",
        ),
        _spec(
            "ingest_nacks_sent", COUNTER,
            "sequences NACKed for retransmission, re-NACKs included "
            "(tier-2 spend; the budget is per recovery hold)",
            "stream",
        ),
        _spec(
            "ingest_parity_frames", COUNTER,
            "PARITY frames received by the recovery layer", "stream",
        ),
        _spec(
            "link_frames", COUNTER,
            "simulated radio-link frame fates (seen/dropped/corrupted/"
            "duplicated/reordered/delivered, plus parity_seen/"
            "parity_dropped/parity_delivered)", "fate", "stream",
        ),
        # -- fleet decode engine (repro.fleet.engine) ------------------
        _spec(
            "fleet_runs", COUNTER,
            "fleet decode runs by shard mode (in-process/columns)", "mode",
        ),
        _spec(
            "fleet_windows_decoded", COUNTER,
            "windows decoded across all streams of a run",
        ),
        _spec(
            "fleet_groups", GAUGE,
            "operator groups in the latest run's schedule",
        ),
        _spec(
            "fleet_effective_workers", GAUGE,
            "worker processes the latest run actually used",
        ),
        _spec(
            "fleet_group_windows", COUNTER,
            "windows pooled per operator group", "group",
        ),
        _spec(
            "fleet_worker_tasks", COUNTER,
            "one-batch solve tasks completed per worker process", "worker",
        ),
        _spec(
            "fleet_worker_windows", COUNTER,
            "windows decoded per worker process", "worker",
        ),
        _spec(
            "fleet_worker_task_seconds", HISTOGRAM,
            "wall time of one worker solve task", "worker",
        ),
        _spec(
            "fleet_solve_seconds", HISTOGRAM,
            "wall time of one batched solve",
        ),
        _spec(
            "fleet_solve_width", HISTOGRAM,
            "columns per batched solve",
        ),
        _spec(
            "fleet_solve_iterations", HISTOGRAM,
            "solver iterations one window's solve took (every leg)",
        ),
        _spec(
            "fleet_hybrid_windows", COUNTER,
            "windows solved on the hybrid float32 fast path",
        ),
        _spec(
            "fleet_polish_windows", COUNTER,
            "hybrid windows re-solved in float64 after leaving the "
            "residual corridor",
        ),
        # -- federation front door (repro.ingest.federation) -----------
        _spec(
            "federation_gateways", GAUGE,
            "gateway worker processes currently alive behind the "
            "front door",
        ),
        _spec(
            "federation_reroutes", COUNTER,
            "live node links cut by a gateway death and remapped to "
            "the ring's new segment owner", "gateway",
        ),
        _spec(
            "federation_streams", COUNTER,
            "node connections routed by operator key", "gateway",
        ),
        # -- realtime pipeline simulator (repro.realtime) --------------
        _spec(
            "realtime_jobs", COUNTER,
            "jobs submitted to a simulated processor", "processor",
        ),
        _spec(
            "realtime_busy_seconds", COUNTER,
            "busy time accumulated by a simulated processor",
            "processor",
        ),
        _spec(
            "realtime_utilization_percent", GAUGE,
            "busy percentage of a simulated processor over the run",
            "processor",
        ),
        _spec(
            "realtime_deadline_misses", GAUGE,
            "windows that missed the display deadline in the run",
        ),
        _spec(
            "realtime_end_to_end_latency_seconds", HISTOGRAM,
            "sample-acquired to displayed latency in the simulator",
        ),
    )
}

#: the label vocabulary: every label name any metric may use — bound
#: meters (``registry.meter(...)`` / ``meter.child(...)``) must draw
#: from this set
LABEL_NAMES: frozenset[str] = frozenset(
    name for spec in CATALOG.values() for name in spec.labels
)

#: method-name -> declared kind, for the RL004 kind check
KIND_BY_METHOD = {
    "inc": COUNTER,
    "set_gauge": GAUGE,
    "observe": HISTOGRAM,
}


def spec_for(name: str) -> MetricSpec | None:
    """The declaration of one metric name (None when undeclared)."""
    return CATALOG.get(name)


__all__ = [
    "CATALOG",
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "KIND_BY_METHOD",
    "LABEL_NAMES",
    "MetricSpec",
    "spec_for",
]
