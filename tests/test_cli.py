"""Tests for the repro-ecg command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import main


#: numeric flags that escaped as a traceback (exit 1) before they were
#: validated up front; ``serve --simulate`` also had its gateway running
_BAD_NUMBERS = [
    *(
        [command, "--cr", cr]
        for command in ("quickstart", "fleet", "fig8")
        for cr in ("100", "-5", "nan")
    ),
    *(
        ["serve", "--simulate", "1", "--port", "0", "--cr", cr]
        for cr in ("100", "-5", "nan")
    ),
    *(
        [command, "--duration", duration]
        for command in ("quickstart", "fleet", "sweep", "fig8")
        for duration in ("0", "-1")
    ),
    ["quickstart", "--packets", "0"],
    ["fig8", "--packets", "0"],
    ["sweep", "--records", "0"],
]


class TestCli:
    def test_quickstart(self, capsys):
        code = main(
            [
                "quickstart",
                "--record", "100",
                "--cr", "50",
                "--packets", "2",
                "--duration", "12",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "measured_cr" in captured
        assert "snr_db" in captured

    def test_fleet(self, capsys):
        code = main(
            [
                "fleet",
                "--streams", "2",
                "--packets", "2",
                "--duration", "12",
                "--batch-size", "4",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "1 operator group(s)" in captured
        assert "single process" in captured
        assert "windows/s" in captured

    def test_fleet_workers_flag(self, capsys):
        code = main(
            [
                "fleet",
                "--streams", "2",
                "--packets", "2",
                "--duration", "12",
                "--batch-size", "4",
                "--groups", "2",
                "--fleet-workers", "2",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "2 operator group(s)" in captured
        assert "2 workers" in captured

    def test_fleet_workers_without_shardable_work_reports_and_warns(
        self, capsys
    ):
        """One group, one batch: nothing to shard.  The mode string
        must say what actually ran, and the engine must emit one
        warning naming the reason instead of staying silent."""
        with pytest.warns(RuntimeWarning, match="nothing to shard"):
            code = main(
                [
                    "fleet",
                    "--streams", "2",
                    "--packets", "2",
                    "--duration", "12",
                    "--batch-size", "4",
                    "--fleet-workers", "4",
                ]
            )
        captured = capsys.readouterr().out
        assert code == 0
        assert "single process" in captured

    def test_fleet_invalid_streams(self, capsys):
        assert main(["fleet", "--streams", "0"]) == 2

    def test_fleet_invalid_packets(self, capsys):
        assert main(["fleet", "--streams", "1", "--packets", "0"]) == 2

    def test_fleet_invalid_batch_size_exits_cleanly(self, capsys):
        assert main(["fleet", "--batch-size", "0"]) == 2
        assert main(["fleet", "--fleet-workers", "-1"]) == 2
        assert main(["fleet", "--groups", "0"]) == 2

    def test_serve_simulate_runs_gateway_over_tcp(self, capsys):
        """serve --simulate: real TCP listener, N node clients, one
        latency table, clean exit."""
        code = main(
            [
                "serve",
                "--port", "0",
                "--simulate", "2",
                "--packets", "2",
                "--batch-size", "2",
                "--flush-ms", "150",
                "--interval-ms", "20",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "live gateway: 2 nodes over TCP" in captured
        assert "max_latency_ms" in captured
        # 2 nodes x 2 windows, all decoded: one latency sample each
        assert re.search(
            r"ingest_window_latency_seconds \|\s+- \| histogram \|\s+4 \|",
            captured,
        )

    def test_serve_simulate_with_lossy_channel(self, capsys):
        """The --loss knob drives the simulator: the run survives the
        impaired channel, and the table and telemetry view report the
        damage accounting instead of silently under-decoding."""
        code = main(
            [
                "serve",
                "--port", "0",
                "--simulate", "2",
                "--packets", "4",
                "--batch-size", "2",
                "--flush-ms", "100",
                "--interval-ms", "10",
                "--loss", "0.25",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "channel loss=0.25" in captured
        assert "lost" in captured and "resynced" in captured
        assert "fate=dropped" in captured
        assert "ingest_windows_lost" in captured

    def test_serve_simulate_with_telemetry(self, capsys, tmp_path):
        """--metrics-file/--metrics-port wire the telemetry plane: the
        run exits cleanly, prints the telemetry view, and the ring file
        replays to a snapshot with the decoded windows accounted."""
        from telemetry_oracle import last_ring_snapshot

        ring = tmp_path / "metrics.jsonl"
        code = main(
            [
                "serve",
                "--port", "0",
                "--simulate", "2",
                "--packets", "2",
                "--batch-size", "2",
                "--flush-ms", "150",
                "--interval-ms", "20",
                "--metrics-file", str(ring),
                "--metrics-port", "0",
                "--metrics-interval", "0.2",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "metrics exposition on http://" in captured
        assert "ingest_flushes" in captured  # the view lists the flushes
        snapshot = last_ring_snapshot(ring)
        assert snapshot.counter_total("ingest_windows_decoded") == 4

    def test_serve_rejects_bad_metrics_interval(self, capsys):
        assert main(["serve", "--metrics-interval", "0"]) == 2

    def test_latency_cell_reports_no_data_distinctly(self):
        # every CLI table goes through the one renderer, which turns
        # "no data" into n/a in exactly one place
        from repro.experiments import render_table

        table = render_table(
            [{"stream": 0, "max_latency_ms": None, "prd": 12.5}], title="t"
        )
        assert "n/a" in table and "None" not in table
        assert "12.500" in table

    def test_serve_invalid_parameters_exit_cleanly(self, capsys):
        assert main(["serve", "--simulate", "-1"]) == 2
        assert main(["serve", "--simulate", "1", "--packets", "0"]) == 2
        assert main(["serve", "--batch-size", "0"]) == 2
        assert main(["serve", "--flush-ms", "0"]) == 2
        # regression: NaN slipped past the old `<= 0` check, and a
        # window pooled behind a busy solver was then never acked
        for flush_ms in ("nan", "inf"):
            assert main(["serve", "--flush-ms", flush_ms]) == 2
            assert main(
                ["serve", "--gateways", "2", "--flush-ms", flush_ms]
            ) == 2
        assert main(["serve", "--simulate", "1", "--loss", "1.5"]) == 2
        assert main(["serve", "--simulate", "1", "--corrupt", "-0.1"]) == 2
        # channel flags without --simulate would be silently ignored
        assert main(["serve", "--loss", "0.1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        _BAD_NUMBERS,
        ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv),
    )
    def test_bad_number_exits_2_with_one_stderr_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_sweep_fig7(self, capsys):
        code = main(
            [
                "sweep",
                "--figure", "fig7",
                "--records", "1",
                "--packets", "2",
                "--duration", "12",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "iterations" in captured
        assert "iphone_time_s" in captured

    def test_fig8(self, capsys):
        code = main(["fig8", "--packets", "3", "--duration", "30"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "node_cpu_percent" in captured
        assert "buffer_min_s" in captured

    def test_budget(self, capsys):
        code = main(["budget"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "sensing_ms" in captured
        assert "sparse-binary" in captured

    def test_simd(self, capsys):
        code = main(["simd"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "array-padding" in captured
        assert "cap_neon" in captured

    def test_records(self, capsys):
        code = main(["records"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "atrial-fibrillation" in captured
        assert captured.count("\n") > 48

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_invalid_record_rejected(self):
        with pytest.raises(SystemExit):
            main(["quickstart", "--record", "999"])
