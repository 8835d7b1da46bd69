"""Tests for sensing-matrix diagnostics (column norms, coherence)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sensing import (
    GaussianMatrix,
    SparseBinaryMatrix,
    column_norms,
    mutual_coherence,
)


class TestCoherence:
    def test_identity_has_zero_coherence(self):
        assert mutual_coherence(np.eye(8)) == pytest.approx(0.0)

    def test_repeated_column_has_unit_coherence(self):
        matrix = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert mutual_coherence(matrix) == pytest.approx(1.0)

    def test_gaussian_coherence_moderate(self):
        phi = GaussianMatrix(128, 256, seed=1)
        coherence = mutual_coherence(phi.matrix())
        assert 0.05 < coherence < 0.6

    def test_sparse_binary_coherence_bounded(self):
        """Incoherence between columns: the paper's design requirement."""
        phi = SparseBinaryMatrix(256, 512, d=12, seed=2011)
        assert mutual_coherence(phi.matrix()) < 0.6

    def test_zero_column_handled(self):
        matrix = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert mutual_coherence(matrix) == pytest.approx(0.0)


class TestColumnAndRowStats:
    def test_column_norms(self):
        matrix = np.array([[3.0, 0.0], [4.0, 2.0]])
        assert np.allclose(column_norms(matrix), [5.0, 2.0])

