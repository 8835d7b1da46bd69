"""The serving path imports numpy alone.

A node -> gateway -> solve process (``repro-ecg serve``, a federation
gateway, a benchmark child) loads ``repro.ingest``, ``repro.fleet``,
``repro.core`` and ``repro.cli``.  None of them may import scipy: it
costs ~70 MB and ~1.1 s per process, for code the serving path never
runs.  scipy stays the test oracle of the kernels that replaced it
(``tests/sensing/test_scipy_oracles.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: a subprocess that makes scipy unimportable, then runs the serving
#: path end to end: a calibrated node streams over the loopback link
#: into a hybrid gateway, and a float64 fleet job decodes offline
_SCRIPT = """
import sys


class _Absent:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(
                f"{name} is blocked for this test", name=name
            )
        return None


sys.meta_path.insert(0, _Absent())

import asyncio

import repro.cli
import repro.core
import repro.fleet
import repro.ingest
from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.ecg import SyntheticMitBih
from repro.fleet import FleetDecoder, StreamTask
from repro.ingest import IngestGateway, NodeClient

WINDOWS = 3
config = SystemConfig(
    n=256, m=128, d=8, levels=4, max_iterations=400, tolerance=1e-4
)
record = SyntheticMitBih(duration_s=10.0).load("100")


async def live():
    system = EcgMonitorSystem(config, precision="hybrid")
    system.calibrate(record)
    gateway = IngestGateway(batch_size=2)
    report = await NodeClient(system, record, max_packets=WINDOWS).run(
        *gateway.connect_local()
    )
    await gateway.close()
    return report, gateway.stats


report, stats = asyncio.run(live())
assert report.error is None and report.acked == WINDOWS, report
assert stats.windows_decoded == WINDOWS
# a lazily loaded numpy package costs its import on first use; the
# gateway's first solve must not pay for numpy.ma (np.median loads it)
assert "numpy.ma" not in sys.modules

system = EcgMonitorSystem(config)
system.calibrate(record)
(offline,) = FleetDecoder(batch_size=2).run(
    [StreamTask(system, record, max_packets=WINDOWS)]
)
assert len(offline.packets) == WINDOWS

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print("scipy modules loaded:", loaded)
sys.exit(1 if loaded else 0)
"""


def test_serving_path_runs_with_scipy_blocked():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "scipy modules loaded: []" in proc.stdout
