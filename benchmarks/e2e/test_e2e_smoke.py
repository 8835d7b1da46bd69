"""Tier-1 smoke of the end-to-end benchmark (in-process, small).

Every workload runs once, traced, through ``child.run_spec`` called
in-process instead of a child per run, at 2 x 8 windows (2 x 16
offline: a whole batch per stream, which the serial-reference check
needs); ``saturate`` also goes through the runner's aggregation.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.ecg import SyntheticMitBih
from repro.ingest import IngestGateway, NodeClient
from repro.ingest.client import encoded_packets
from repro.ingest.protocol import (
    FrameKind,
    encode_json_frame,
    read_frame,
)

from . import child, compare, runner, spec, trace
from .loadgen import LoadLink, clock, plan_link

HERE = Path(__file__).resolve().parent
WINDOWS = 8


def smoke_run(name: str, traced: bool, trace_file: Path | None = None) -> dict:
    workload = spec.WORKLOAD_BY_NAME[name]
    return child.run_spec(
        {
            "workload": name,
            "seed": 2011,
            "windows": WINDOWS if workload.live else spec.WINDOW_QUANTUM,
            "traced": traced,
            "heavy": True,
            "trace_file": str(trace_file) if trace_file else None,
        }
    )


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced run per workload, and where each wrote its spans."""
    directory = tmp_path_factory.mktemp("traces")
    return directory, {
        name: smoke_run(name, True, directory / f"trace_{name}.json")
        for name in spec.ALL
    }


@pytest.mark.parametrize("workload", spec.ALL)
def test_every_metric_is_emitted(traced_runs, workload):
    result = traced_runs[1][workload]
    assert result["failed"] == 0
    assert result["attempted"] == 2 * result["windows"]
    assert set(result["end_to_end"]) == set(spec.END_TO_END_BY_NAME)
    # the one per-layer metric a single run cannot know is the
    # traced-vs-untraced ratio, which the runner adds
    assert set(result["per_layer"]) == set(spec.PER_LAYER_BY_NAME) - {
        "trace.overhead_pct"
    }
    assert len(spec.END_TO_END) == 9 and len(spec.PER_LAYER) == 40
    for metric in spec.END_TO_END:
        if metric.contract:  # the contract wants values that are never 0
            assert result["end_to_end"][metric.name] > 0


def test_runner_aggregates_names_and_units(traced_runs):
    """The CLI's aggregation, fed in-process: an untraced run for the
    end-to-end medians, the traced one for the layers."""
    runs = iter([smoke_run("saturate", False), traced_runs[1]["saturate"]])
    result = runner.run_workload(
        "saturate", 2011, WINDOWS, repeats=1, traced=True,
        run=lambda _spec: next(runs),
    )
    assert {
        name: entry["unit"] for name, entry in result["end_to_end"].items()
    } == {metric.name: metric.unit for metric in spec.END_TO_END}
    assert {
        name: entry["unit"] for name, entry in result["per_layer"].items()
    } == {metric.name: metric.unit for metric in spec.PER_LAYER}
    declared = spec.benchmark_json(1)
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(runner.contract_line(result, traced=traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {
            name: entry["unit"] for name, entry in line["metrics"].items()
        } == {entry["name"]: entry["unit"] for entry in declared[key]}


def test_benchmark_json_is_the_spec_table():
    declared = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json(declared["run_seconds"])


def test_span_partition_on_a_16_window_traced_run(traced_runs):
    directory, runs = traced_runs
    layers = runs["paced"]["per_layer"]
    assert layers["trace.unattributed_share"] <= spec.MAX_UNATTRIBUTED
    assert layers["loadgen.acked"] == 2 * WINDOWS
    document = json.loads((directory / "trace_paced.json").read_text())
    roots = [s for s in document["spans"] if s["name"] == "window"]
    assert len(roots) == 2 * WINDOWS
    for root in roots:
        children = [
            s
            for s in document["spans"]
            if s["parent"] == "window" and s["id"] == root["id"]
        ]
        assert [s["name"] for s in children] == list(trace.STAGES)
        assert children[0]["start"] == pytest.approx(root["start"])
        assert children[-1]["end"] == pytest.approx(root["end"])
        covered = sum(s["end"] - s["start"] for s in children)
        assert covered <= (root["end"] - root["start"]) * (1 + 1e-9)


class _Tap:
    """Writer wrapper recording every byte put on the wire."""

    def __init__(self, inner):
        self.inner = inner
        self.wire = bytearray()

    def write(self, data):
        self.wire.extend(data)
        self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("fec", [False, True], ids=["clean", "fec"])
def test_loadgen_wire_bytes_equal_node_client(fec):
    windows = 2 * SystemConfig().keyframe_interval + 3  # a partial epoch
    record = SyntheticMitBih(duration_s=2.0 * windows + 4.0, seed=7).load("100")
    system = EcgMonitorSystem(SystemConfig(), precision="hybrid")
    system.calibrate(record)

    async def wire_of(start) -> bytes:
        gateway = IngestGateway(batch_size=spec.BATCH_SIZE, flush_ms=50.0)
        reader, writer = gateway.connect_local()
        tap = _Tap(writer)
        try:
            await start(reader, tap)
        finally:
            await gateway.close()
        assert gateway.results[0].num_windows == windows
        return bytes(tap.wire)

    async def node_client(reader, tap):
        client = NodeClient(
            system, record, max_packets=windows, interval_s=0.0, fec=fec
        )
        await client.run(reader, tap)

    async def load_link(reader, tap):
        packets = encoded_packets(system, record, max_packets=windows)
        link = LoadLink(
            plan_link(system, record.name, packets, fec), [0.0] * windows
        )
        await link.open(reader, tap)
        report = await link.run(clock())
        assert report.acked == windows
        assert report.wire_bytes == len(tap.wire) - len(link.plan.hello) - len(
            link.plan.bye
        )

    assert asyncio.run(wire_of(load_link)) == asyncio.run(wire_of(node_client))


def test_due_schedule_does_not_drift_when_acks_stall():
    """Acks held back 150 ms must not move a single ``due`` stamp, nor
    make the sender late: the schedule is absolute, not ack-driven."""
    windows, interval, ack_delay = 10, 0.02, 0.15
    record = SyntheticMitBih(duration_s=2.0 * windows + 4.0, seed=7).load("100")
    system = EcgMonitorSystem(SystemConfig(), precision="hybrid")
    packets = encoded_packets(system, record, max_packets=windows)

    async def slow_gateway(reader, writer):
        await read_frame(reader)  # HELLO
        writer.write(encode_json_frame(FrameKind.WELCOME, {"stream_id": 0}))
        sequence = 0
        while True:
            frame = await read_frame(reader)
            if frame is None or frame[0] is FrameKind.BYE:
                break
            await asyncio.sleep(ack_delay)
            writer.write(
                encode_json_frame(FrameKind.DECODED, {"sequence": sequence})
            )
            sequence += 1
        writer.close()

    async def scenario():
        server = await asyncio.start_server(slow_gateway, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        link = LoadLink(
            plan_link(system, "100", packets, False),
            [k * interval for k in range(windows)],
        )
        await link.connect("127.0.0.1", port)
        t0 = clock() + 0.02
        report = await link.run(t0)
        server.close()
        await server.wait_closed()
        return t0, report

    t0, report = asyncio.run(scenario())
    assert report.acked == windows
    assert report.due == [t0 + k * interval for k in range(windows)]
    lateness = [sent - due for sent, due in zip(report.sent_at, report.due)]
    assert max(lateness) < 0.010
    # the acks really were late: the last one trails its due time by
    # more than the whole send schedule took
    assert report.ack_recv[windows - 1] - report.due[-1] > windows * interval


def _entry(*values):
    ordered = sorted(values)
    return {
        "median": ordered[len(ordered) // 2],
        "min": ordered[0],
        "max": ordered[-1],
    }


def test_compare_verdicts():
    throughput = spec.END_TO_END_BY_NAME["windows_per_s"]  # higher, 8 %
    base = _entry(99.0, 100.0, 101.0)
    assert compare.verdict(throughput, base, _entry(99.5, 100.5, 101.5)) == "same"
    assert compare.verdict(throughput, base, _entry(119.0, 120.0, 121.0)) == "better"
    assert compare.verdict(throughput, base, _entry(84.0, 85.0, 86.0)) == "worse"
    # repeats spread wider than the bound, ranges overlap: no verdict
    assert (
        compare.verdict(throughput, base, _entry(80.0, 85.0, 100.0))
        == "unresolved"
    )
    failed = spec.END_TO_END_BY_NAME["failed_share"]  # exact, absolute
    zero = _entry(0.0, 0.0, 0.0)
    assert compare.verdict(failed, zero, zero) == "same"
    assert compare.verdict(failed, zero, _entry(0.01, 0.01, 0.01)) == "worse"


def test_compare_exits_non_zero_on_worse(tmp_path, capsys):
    def envelope(throughput):
        return {
            "fingerprint": {"id": "box"},
            "seed": 1,
            "shrink": 1.0,
            "repeats": 3,
            "workloads": {
                "saturate": {
                    "end_to_end": {
                        "windows_per_s": _entry(*throughput),
                    }
                }
            },
        }

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(envelope((99.0, 100.0, 101.0))))
    b.write_text(json.dumps(envelope((79.0, 80.0, 81.0))))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: no result, non-zero exit."""
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    shutil.copy(runner.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e", "--workload", "paced",
            "--seed", "1", "--seconds", "3", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
