"""The unified telemetry plane of the decode stack.

One process-wide metrics core (:mod:`~repro.telemetry.core`) replaces
the five accounting islands that grew up around the pipeline — gateway
stats, per-stream ingest results, lossy-link/loss accounting, fleet
scheduler counters and the realtime processor ledger — with labeled
counters, gauges and percentile-capable histograms whose snapshots
merge associatively across process-pool workers.

Two persistent sinks (:mod:`~repro.telemetry.sinks`) give a
long-running ``serve`` memory beyond stdout: a bounded JSONL ring file
of timestamped snapshots, and the Prometheus text exposition served
over HTTP by :class:`~repro.telemetry.exposition.MetricsServer`.  The shared table
views (:mod:`~repro.telemetry.views`) render any snapshot — and any
CLI result table — with ``n/a`` handling in exactly one place.
"""

from importlib import import_module

#: public name -> defining submodule, resolved lazily (PEP 562).
#: repro-lint's RL004 imports :mod:`repro.telemetry.catalog` (pure
#: stdlib) from CI's dependency-free lint job; an eager package root
#: would drag numpy in through :mod:`.views` -> repro.experiments.
_LAZY_EXPORTS = {
    "CATALOG": "catalog",
    "COUNTER": "catalog",
    "GAUGE": "catalog",
    "HISTOGRAM": "catalog",
    "LABEL_NAMES": "catalog",
    "MetricSpec": "catalog",
    "spec_for": "catalog",
    "DEFAULT_LATENCY_BUCKETS": "core",
    "DEFAULT_SIZE_BUCKETS": "core",
    "NULL_METER": "core",
    "HistogramSnapshot": "core",
    "Meter": "core",
    "MetricsRegistry": "core",
    "MetricsSnapshot": "core",
    "label_key": "core",
    "MetricsServer": "exposition",
    "scrape_local": "exposition",
    "RING_SCHEMA": "sinks",
    "JsonlRingSink": "sinks",
    "render_prometheus": "sinks",
    "na": "views",
    "render_result_table": "views",
    "render_snapshot_table": "views",
    "snapshot_rows": "views",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
