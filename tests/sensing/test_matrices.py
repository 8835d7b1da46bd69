"""Tests for Gaussian, Bernoulli and quantized sensing matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SensingError
from repro.sensing import (
    BernoulliMatrix,
    GaussianMatrix,
    QuantizedGaussianMatrix,
)


class TestGaussianMatrix:
    def test_shape_and_scaling(self):
        phi = GaussianMatrix(64, 256, seed=1)
        assert phi.shape == (64, 256)
        # entries ~ N(0, 1/n): sample std ~ 1/16
        assert np.std(phi.matrix()) == pytest.approx(1.0 / 16.0, rel=0.05)

    def test_deterministic_by_seed(self):
        a = GaussianMatrix(16, 32, seed=5).matrix()
        b = GaussianMatrix(16, 32, seed=5).matrix()
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = GaussianMatrix(16, 32, seed=5).matrix()
        b = GaussianMatrix(16, 32, seed=6).matrix()
        assert not np.array_equal(a, b)

    def test_measure(self, rng):
        phi = GaussianMatrix(8, 32, seed=2)
        x = rng.standard_normal(32)
        assert np.allclose(phi.measure(x), phi.matrix() @ x)

    def test_measure_wrong_shape(self):
        phi = GaussianMatrix(8, 32, seed=2)
        with pytest.raises(SensingError):
            phi.measure(np.zeros(31))

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(SensingError):
            GaussianMatrix(33, 32)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(SensingError):
            GaussianMatrix(0, 32)

    def test_storage_bits(self):
        assert GaussianMatrix(8, 16, seed=1).storage_bits() == 32 * 8 * 16

    def test_matrix_is_readonly(self):
        phi = GaussianMatrix(4, 8, seed=1)
        with pytest.raises(ValueError):
            phi.matrix()[0, 0] = 9.0


class TestBernoulliMatrix:
    def test_entries_are_plus_minus_inv_sqrt_n(self):
        phi = BernoulliMatrix(16, 64, seed=1)
        unique = np.unique(phi.matrix())
        assert np.allclose(np.abs(unique), 1.0 / 8.0)
        assert len(unique) == 2

    def test_roughly_balanced_signs(self):
        phi = BernoulliMatrix(32, 128, seed=2)
        positive = np.count_nonzero(phi.matrix() > 0)
        assert abs(positive / (32 * 128) - 0.5) < 0.05

    def test_storage_is_one_bit_per_entry(self):
        assert BernoulliMatrix(8, 16, seed=1).storage_bits() == 128

    def test_unit_column_norm_expectation(self):
        phi = BernoulliMatrix(64, 64, seed=3)
        norms = np.linalg.norm(phi.matrix(), axis=0)
        assert np.allclose(norms, 1.0)


def _int8_entries(phi) -> np.ndarray:
    """The int8 entries the float view was scaled from."""
    steps = phi.matrix() * np.sqrt(phi.n) / QuantizedGaussianMatrix.QUANT_SCALE
    return np.rint(steps)


class TestQuantizedGaussianMatrix:
    def test_float_view_is_scaled_int8(self):
        phi = QuantizedGaussianMatrix(8, 16, seed=1)
        steps = _int8_entries(phi)
        on_grid = steps * QuantizedGaussianMatrix.QUANT_SCALE / np.sqrt(16)
        np.testing.assert_allclose(phi.matrix(), on_grid, rtol=0, atol=1e-15)
        assert -128 <= steps.min() and steps.max() <= 127

    def test_distribution_close_to_gaussian(self):
        phi = QuantizedGaussianMatrix(32, 64, seed=2)
        values = _int8_entries(phi).ravel() / 32.0
        assert abs(np.mean(values)) < 0.08
        assert 0.8 < np.std(values) < 1.2

    def test_clt_generator_variant(self):
        phi = QuantizedGaussianMatrix(8, 16, seed=3, generator="clt")
        assert phi.matrix().shape == (8, 16)
        assert phi.ops_per_draw == 24

    def test_unknown_generator_rejected(self):
        with pytest.raises(SensingError):
            QuantizedGaussianMatrix(8, 16, generator="mwc")

    def test_storage_is_one_byte_per_entry(self):
        assert QuantizedGaussianMatrix(8, 16, seed=1).storage_bits() == 8 * 128

    def test_deterministic(self):
        a = QuantizedGaussianMatrix(8, 16, seed=9).matrix()
        b = QuantizedGaussianMatrix(8, 16, seed=9).matrix()
        assert np.array_equal(a, b)
