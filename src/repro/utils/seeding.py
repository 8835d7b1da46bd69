"""Deterministic seed derivation.

Every stochastic component of the library (sensing-matrix construction,
synthetic ECG records, noise generators) must be reproducible from a
single integer seed.  :func:`derive_seed` maps a ``(seed, *labels)`` tuple
to a child seed through a stable hash, so independent components never
share a stream by accident and results are identical across runs and
platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np
# numpy loads its random package on first use; importing it here keeps
# that cost at import time rather than on a first seeded draw
import numpy.random  # noqa: F401


def derive_seed(seed: int, *labels: object) -> int:
    """Derive a stable 63-bit child seed from ``seed`` and a label path.

    The derivation uses BLAKE2b over the decimal representations, so it
    does not depend on Python's per-process hash randomization.
    """
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(str(int(seed)).encode("ascii"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "big") & (2**63 - 1)


def rng_from(seed: int, *labels: object) -> np.random.Generator:
    """A :class:`numpy.random.Generator` seeded via :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(seed, *labels))
