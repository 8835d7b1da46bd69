"""Tests for the sparse binary sensing matrix (the adopted design)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SensingError
from repro.sensing import SparseBinaryMatrix


class TestStructure:
    def test_exactly_d_ones_per_column(self):
        phi = SparseBinaryMatrix(64, 128, d=12, seed=1)
        dense = phi.matrix()
        assert np.all(np.count_nonzero(dense, axis=0) == 12)

    def test_nonzero_value_is_inv_sqrt_d(self):
        phi = SparseBinaryMatrix(64, 128, d=9, seed=1)
        values = phi.matrix()[phi.matrix() != 0]
        assert np.allclose(values, 1.0 / 3.0)

    def test_unit_column_norms(self):
        phi = SparseBinaryMatrix(64, 128, d=12, seed=1)
        assert np.allclose(np.linalg.norm(phi.matrix(), axis=0), 1.0)

    def test_rows_per_column_sorted_unique(self):
        phi = SparseBinaryMatrix(32, 64, d=8, seed=2)
        for column in phi.rows_per_column:
            assert len(set(column.tolist())) == 8
            assert list(column) == sorted(column)
            assert column.min() >= 0 and column.max() < 32

    def test_deterministic_by_seed(self):
        a = SparseBinaryMatrix(32, 64, d=6, seed=3)
        b = SparseBinaryMatrix(32, 64, d=6, seed=3)
        assert np.array_equal(a.rows_per_column, b.rows_per_column)

    def test_seed_changes_pattern(self):
        a = SparseBinaryMatrix(32, 64, d=6, seed=3)
        b = SparseBinaryMatrix(32, 64, d=6, seed=4)
        assert not np.array_equal(a.rows_per_column, b.rows_per_column)

    def test_d_must_fit_m(self):
        with pytest.raises(SensingError):
            SparseBinaryMatrix(8, 16, d=9)
        with pytest.raises(SensingError):
            SparseBinaryMatrix(8, 16, d=0)

    def test_sparse_and_dense_agree(self, rng):
        phi = SparseBinaryMatrix(32, 64, d=4, seed=5)
        x = rng.standard_normal(64)
        assert np.allclose(phi.sparse() @ x, phi.matrix() @ x)


class TestMeasurement:
    def test_float_measure_matches_dense(self, rng):
        phi = SparseBinaryMatrix(32, 64, d=4, seed=5)
        x = rng.standard_normal(64)
        assert np.allclose(phi.measure(x), phi.matrix() @ x)

    def test_integer_measure_is_unscaled_sum(self, rng):
        phi = SparseBinaryMatrix(32, 64, d=4, seed=6)
        x = rng.integers(-1024, 1024, size=64)
        y_int = phi.measure_integer(x)
        expected = phi.matrix() @ x.astype(np.float64) * math.sqrt(4)
        assert np.allclose(y_int, expected)

    def test_integer_measure_rejects_floats(self):
        phi = SparseBinaryMatrix(8, 16, d=2, seed=1)
        with pytest.raises(TypeError):
            phi.measure_integer(np.zeros(16))

    def test_integer_measure_wrong_shape(self):
        phi = SparseBinaryMatrix(8, 16, d=2, seed=1)
        with pytest.raises(SensingError):
            phi.measure_integer(np.zeros(15, dtype=np.int64))

    def test_integer_overflow_detected(self):
        phi = SparseBinaryMatrix(2, 4, d=2, seed=1)
        huge = np.full(4, 2**30, dtype=np.int64)
        with pytest.raises(SensingError):
            phi.measure_integer(huge)

    def test_additions_per_packet(self):
        assert SparseBinaryMatrix(256, 512, d=12).additions_per_packet() == 6144

    def test_storage_bits(self):
        phi = SparseBinaryMatrix(256, 512, d=12)
        assert phi.storage_bits() == 512 * 12 * 8  # 8-bit indices for m=256

    @settings(deadline=None, max_examples=20)
    @given(st.integers(2, 8), st.integers(0, 1000))
    def test_integer_and_float_paths_consistent(self, d, seed):
        """The deferred 1/sqrt(d) scale is the only difference."""
        phi = SparseBinaryMatrix(16, 32, d=d, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.integers(-2048, 2048, size=32)
        y_int = phi.measure_integer(x)
        y_float = phi.measure(x.astype(np.float64))
        assert np.allclose(y_int / math.sqrt(d), y_float, atol=1e-9)
