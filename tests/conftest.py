"""Shared fixtures: small configurations and a session-scoped corpus.

Solver-heavy tests use a reduced packet size (N = 256) and a loose
tolerance so the whole suite stays fast; the benchmarks exercise the
paper-scale configuration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.config import SystemConfig
from repro.ecg import SyntheticMitBih

# One Hypothesis profile for every run, local or CI: a fixed example
# sequence (a failure replays from the test id alone) and no per-example
# deadline (a shared 2-core runner is not a timing oracle).  Tests set
# their own ``max_examples`` on top of it.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def paper_config() -> SystemConfig:
    """The paper's operating point (N=512, M=256, d=12)."""
    return SystemConfig()

@pytest.fixture(scope="session")
def small_config() -> SystemConfig:
    """A fast configuration for solver-heavy unit tests."""
    return SystemConfig(
        n=256, m=128, d=8, levels=4, max_iterations=400, tolerance=1e-4
    )


@pytest.fixture(scope="session")
def database() -> SyntheticMitBih:
    """Short-record synthetic corpus shared across the session."""
    return SyntheticMitBih(duration_s=20.0, seed=2011)


@pytest.fixture(scope="session")
def record_100(database: SyntheticMitBih):
    """The canonical normal-sinus record."""
    return database.load("100")


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic per-test random generator."""
    return np.random.default_rng(12345)


def openblas_threads() -> list[int]:
    """Thread count of every OpenBLAS this process has loaded."""
    from repro.fleet.executor import loaded_openblas

    return [
        getattr(library, setter.replace("_set_", "_get_"))()
        for library, setter in loaded_openblas()
    ]


@pytest.fixture()
def blas_on_two_threads():
    """This process's OpenBLAS on 2 threads for the test, restored
    after: a worker forked from it starts from a count it must undo.
    Yields :func:`openblas_threads`."""
    from repro.fleet.executor import loaded_openblas

    libraries = loaded_openblas()
    if not libraries:
        pytest.skip("no OpenBLAS loaded in this process: nothing to pin")
    before = openblas_threads()
    for library, setter in libraries:
        getattr(library, setter)(2)
    yield openblas_threads
    for (library, setter), count in zip(libraries, before):
        getattr(library, setter)(count)
