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
