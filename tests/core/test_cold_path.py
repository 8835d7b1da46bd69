"""The cold path builds each deterministic object once per process.

A node's default codebook and its sensing matrix's row draw depend only
on their arguments, so every encoder, decoder and codebook-less HELLO
shares one of each (a count, not a stopwatch) — and the shared objects
are exactly what an un-memoized build returns.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.coding.codebook as codebook_module
import repro.sensing.sparse_binary as sparse_binary_module
from repro.coding import train_codebook
from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.sensing import SparseBinaryMatrix, XorShift32
from repro.sensing.sparse_binary import draw_rows
from repro.utils import derive_seed


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; returns its call list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def unmemoized_rows(m, n, d, seed):
    """The XorShift32 partial Fisher–Yates draw, written out."""
    generator = XorShift32(derive_seed(seed, "sparse-binary", m, n, d))
    pool = list(range(m))
    rows = []
    for _ in range(n):
        for i in range(d):
            j = i + generator.next_below(m - i)
            pool[i], pool[j] = pool[j], pool[i]
        rows.append(sorted(pool[:d]))
    return np.asarray(rows, dtype=np.int32)


class TestBuiltOncePerProcess:
    def test_eight_systems_train_one_codebook_and_draw_phi_once(
        self, monkeypatch
    ):
        codebook_module._default_codebook.cache_clear()
        draw_rows.cache_clear()
        trained = _counted(
            monkeypatch, codebook_module, "package_merge_lengths"
        )
        drawn = _counted(monkeypatch, sparse_binary_module, "XorShift32")

        systems = [EcgMonitorSystem(SystemConfig()) for _ in range(8)]

        assert len(trained) == 1
        assert len(drawn) == 1
        assert len({id(s.encoder.codebook) for s in systems}) == 1
        assert len({id(s.encoder.matrix.rows_per_column) for s in systems}) == 1
        assert codebook_module._default_codebook.cache_info().misses == 1
        assert draw_rows.cache_info().misses == 1

    def test_default_codebook_is_one_object(self):
        assert train_codebook() is train_codebook()
        # keyword and positional spellings share the entry
        assert train_codebook(None, -256, 512, 16, 1) is train_codebook()
        assert train_codebook(max_length=12) is not train_codebook()

    def test_trained_codebooks_are_not_shared(self):
        samples = [0, 1, -1, 0]
        assert train_codebook(samples) is not train_codebook(samples)

    def test_caches_are_bounded(self):
        assert codebook_module._default_codebook.cache_info().maxsize is not None
        assert draw_rows.cache_info().maxsize is not None


class TestRowDraw:
    @pytest.mark.parametrize(
        "m, n, d, seed",
        [
            (256, 512, 12, 2011),  # the paper point
            (256, 512, 12, 7),
            (64, 128, 8, 3),
            (16, 32, 16, 5),  # d == m: every column is every row
        ],
        ids=["paper", "seed7", "small", "d-eq-m"],
    )
    def test_equals_the_unmemoized_draw(self, m, n, d, seed):
        phi = SparseBinaryMatrix(m, n, d=d, seed=seed)
        want = unmemoized_rows(m, n, d, seed)
        assert phi.rows_per_column.dtype == want.dtype
        np.testing.assert_array_equal(phi.rows_per_column, want)

    def test_shared_draw_is_read_only(self):
        phi = SparseBinaryMatrix(256, 512, d=12, seed=2011)
        other = SparseBinaryMatrix(256, 512, d=12, seed=2011)
        assert phi.rows_per_column is other.rows_per_column
        with pytest.raises(ValueError):
            phi.rows_per_column[0, 0] = 1
        with pytest.raises(ValueError):
            draw_rows(256, 512, 12, 2011)[0, 0] = 1

    def test_measure_integer_batch_unchanged(self):
        """Pinned digest of the paper point's batched integer sensing,
        and row-for-row equality with the scalar kernel."""
        phi = SparseBinaryMatrix(256, 512, d=12, seed=2011)
        x = np.random.default_rng(5).integers(-2048, 2048, (4, 512))
        batch = phi.measure_integer_batch(x)
        assert hashlib.sha256(batch.tobytes()).hexdigest() == (
            "d48a0fbd58469e9a15f7ce423aff99a99cb68caf3ec7d0cfcefeac0a37ed2b69"
        )
        for row, window in zip(batch, x):
            np.testing.assert_array_equal(row, phi.measure_integer(window))
