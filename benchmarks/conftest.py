"""Shared fixtures for the benchmark harness.

Each paper figure gets one bench module.  The expensive CR sweeps are
session-scoped fixtures so the series is computed once and shared by
the bench functions that report and assert on it; pytest-benchmark
timings are attached to the representative computational kernels.

Run with::

    pytest benchmarks/ --benchmark-only

Every bench module also writes a machine-readable ``BENCH_<name>.json``
(via :func:`write_bench_json`) to ``benchmarks/results/`` so a figure
series can be read by tooling instead of living only in stdout
(gitignored — the files carry timestamps and per-machine timings, so
CI collects them rather than git).  The serving stack's throughput and
latency trajectory is not kept here: that is ``benchmarks/e2e``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np
import pytest

#: schema version of the BENCH_<name>.json payload; bump when the
#: envelope (not a bench's own series) changes shape
BENCH_JSON_SCHEMA = 3


def _git_commit() -> str | None:
    """The repo HEAD the run measured, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.ecg import SyntheticMitBih
from repro.ecg.resample import resample_record

#: sweep sizing shared by the figure benches (full corpus diversity,
#: tractable wall-clock)
BENCH_RECORDS = ("100", "119", "201", "209")
BENCH_PACKETS = 8


def _to_jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and mappings into JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def write_bench_json(
    name: str,
    *,
    params: dict[str, Any] | None = None,
    timings: dict[str, Any] | None = None,
    **extra: Any,
) -> Path:
    """Persist one benchmark's machine-readable outcome.

    Writes ``BENCH_<name>.json`` with the workload parameters, wall
    clock timings and any extra series the bench wants pinned, plus
    enough provenance to make runs comparable: schema version, UTC
    timestamp, the git commit the numbers were measured at and the CPU
    count.  Returns the written path.
    """
    directory = Path(__file__).parent / "results"
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": BENCH_JSON_SCHEMA,
        "bench": name,
        "unix_time": time.time(),
        "utc_time": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "params": _to_jsonable(params or {}),
        "timings": _to_jsonable(timings or {}),
    }
    for key, value in extra.items():
        payload[key] = _to_jsonable(value)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def bench_json():
    """The :func:`write_bench_json` helper, as a fixture.

    Bench modules take this instead of importing ``conftest`` (which is
    not importable as a module under pytest's rootdir rules).
    """
    return write_bench_json


@pytest.fixture(scope="session")
def bench_database() -> SyntheticMitBih:
    """64-second records: >= BENCH_PACKETS windows each at 256 Hz."""
    return SyntheticMitBih(duration_s=64.0, seed=2011)


@pytest.fixture(scope="session")
def paper_point_system(bench_database) -> EcgMonitorSystem:
    """The paper's operating point, calibrated on record 100."""
    system = EcgMonitorSystem(SystemConfig())
    system.calibrate(bench_database.load("100"))
    return system


@pytest.fixture(scope="session")
def paper_point_windows(bench_database) -> list[np.ndarray]:
    """Digitized 512-sample windows of record 100 at 256 Hz."""
    record = resample_record(bench_database.load("100"), 256.0)
    samples = record.adc.digitize(record.channel(0))
    n = SystemConfig().n
    return [
        samples[i * n : (i + 1) * n] for i in range(len(samples) // n)
    ]
