"""The metric catalog: shape invariants and the HELP-line exposition."""

import re

from telemetry_oracle import exposition_matches_snapshot

from repro.telemetry import (
    CATALOG,
    COUNTER,
    GAUGE,
    HISTOGRAM,
    LABEL_NAMES,
    MetricsRegistry,
    render_prometheus,
    spec_for,
)

_PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class TestCatalogShape:
    def test_every_entry_well_formed(self):
        for name, spec in CATALOG.items():
            assert spec.name == name
            assert _PROM_NAME.match(name), name
            assert spec.kind in (COUNTER, GAUGE, HISTOGRAM)
            assert spec.description.strip(), name
            for label in spec.labels:
                assert _PROM_NAME.match(label), (name, label)

    def test_label_vocabulary_is_union_of_specs(self):
        assert LABEL_NAMES == frozenset(
            label for spec in CATALOG.values() for label in spec.labels
        )

    def test_histogram_suffixes_never_collide_with_entries(self):
        # _bucket/_sum/_count series of a histogram must not shadow a
        # declared metric name
        for name, spec in CATALOG.items():
            if spec.kind != HISTOGRAM:
                continue
            for suffix in ("_bucket", "_sum", "_count"):
                assert name + suffix not in CATALOG

    def test_spec_for(self):
        assert spec_for("ingest_windows_decoded").kind == COUNTER
        assert spec_for("no_such_metric") is None

    def test_solve_budget_series_are_pinned(self):
        assert spec_for("fleet_solve_iterations").kind == HISTOGRAM
        assert not spec_for("fleet_solve_iterations").labels

    def test_queue_stage_series_is_pinned(self):
        spec = spec_for("ingest_stage_seconds")
        assert spec.kind == HISTOGRAM
        assert spec.labels == frozenset({"stage"})

    def test_hold_stage_is_declared(self):
        assert "hold:" in spec_for("ingest_stage_seconds").description

    def test_flush_reason_label_declared(self):
        spec = spec_for("ingest_flushes")
        assert spec.kind == COUNTER
        assert spec.labels == frozenset({"reason"})
        assert "idle" in spec.description


class TestHelpExposition:
    def test_help_lines_precede_type_lines(self):
        registry = MetricsRegistry()
        registry.meter(stream="s0").inc("ingest_windows_decoded")
        text = render_prometheus(registry.snapshot())
        lines = text.splitlines()
        help_idx = lines.index(
            "# HELP ingest_windows_decoded "
            + CATALOG["ingest_windows_decoded"].description
        )
        assert lines[help_idx + 1] == "# TYPE ingest_windows_decoded counter"

    def test_undeclared_metric_renders_without_help(self):
        # the renderer must not crash on a name outside the catalog
        # (dynamic/test-only metrics): it just has no HELP line
        registry = MetricsRegistry()
        registry.inc("test_only_metric")
        text = render_prometheus(registry.snapshot())
        assert "# TYPE test_only_metric counter" in text
        assert "# HELP test_only_metric" not in text

    def test_round_trip_survives_help_lines(self):
        registry = MetricsRegistry()
        meter = registry.meter(stream="s1")
        meter.inc("ingest_windows_decoded", amount=3)
        meter.observe("ingest_solve_seconds", 0.25)
        registry.set_gauge("ingest_queue_depth", 2, group="g0")
        snapshot = registry.snapshot()
        text = render_prometheus(snapshot)
        assert exposition_matches_snapshot(text, snapshot)
