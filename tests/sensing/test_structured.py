"""Tests for the LFSR-circulant structured sensing matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SensingError
from repro.sensing import LfsrCirculantMatrix, SparseBinaryMatrix


class TestStructure:
    def test_rows_are_shifts_of_master(self):
        phi = LfsrCirculantMatrix(16, 64, density=0.25, seed=1)
        dense = phi.matrix()
        master = phi.master_row.astype(np.float64)
        stride = 64 // 16  # n // m
        for i in range(16):
            expected = np.roll(master, i * stride) * (
                dense[i].max() if dense[i].max() > 0 else 1.0
            )
            pattern = (dense[i] != 0).astype(np.float64)
            assert np.array_equal(pattern, np.roll(master, i * stride))

    def test_density_respected(self):
        phi = LfsrCirculantMatrix(32, 256, density=0.25, seed=2)
        achieved = phi.master_row.mean()
        assert 0.15 < achieved < 0.35

    def test_deterministic(self):
        a = LfsrCirculantMatrix(16, 64, seed=3).matrix()
        b = LfsrCirculantMatrix(16, 64, seed=3).matrix()
        assert np.array_equal(a, b)

    def test_storage_is_one_row(self):
        phi = LfsrCirculantMatrix(128, 512)
        assert phi.storage_bits() == 512 + 16
        # far below sparse binary's per-column indices
        assert phi.storage_bits() < SparseBinaryMatrix(128, 512, 12).storage_bits()

    def test_invalid_density(self):
        with pytest.raises(SensingError):
            LfsrCirculantMatrix(16, 64, density=0.0)
        with pytest.raises(SensingError):
            LfsrCirculantMatrix(16, 64, density=0.9)

    def test_integer_path_matches_float(self, rng):
        phi = LfsrCirculantMatrix(16, 64, seed=4)
        x = rng.integers(-500, 500, size=64)
        y_int = phi.measure_integer(x)
        scale = phi.matrix()[phi.matrix() != 0].flat[0]
        assert np.allclose(y_int * scale, phi.measure(x.astype(np.float64)))

    def test_integer_path_validation(self):
        phi = LfsrCirculantMatrix(16, 64, seed=5)
        with pytest.raises(SensingError):
            phi.measure_integer(np.zeros(64))
        with pytest.raises(SensingError):
            phi.measure_integer(np.zeros(63, dtype=np.int64))


class TestRecoveryQuality:
    def test_recovers_sparse_signals_at_moderate_cr(self, rng):
        """Circulant structure still recovers at mild undersampling."""
        from repro.solvers import fista, lambda_from_fraction
        from repro.wavelet import WaveletTransform

        n, m = 256, 192
        transform = WaveletTransform(n, "db4", 4)
        alpha = np.zeros(n)
        support = rng.choice(n, 12, replace=False)
        alpha[support] = rng.standard_normal(12) * 5
        x = transform.inverse(alpha)

        phi = LfsrCirculantMatrix(m, n, seed=6)
        system = phi.matrix() @ transform.synthesis_matrix()
        y = phi.measure(x)
        lam = lambda_from_fraction(system, y, 0.002)
        result = fista(system, y, lam, max_iterations=4000, tolerance=1e-6)
        reconstruction = transform.inverse(result.coefficients)
        prd = np.linalg.norm(x - reconstruction) / np.linalg.norm(x)
        assert prd < 0.25

    def test_recovery_degrades_at_aggressive_undersampling(self, rng):
        """The documented trade-off: the circulant structure loses
        recovery quality faster than moderate undersampling allows."""
        from repro.solvers import fista, lambda_from_fraction
        from repro.wavelet import WaveletTransform

        n = 256
        transform = WaveletTransform(n, "db4", 4)
        alpha = np.zeros(n)
        support = rng.choice(n, 12, replace=False)
        alpha[support] = rng.standard_normal(12) * 5
        x = transform.inverse(alpha)

        prds = {}
        for m in (192, 48):
            phi = LfsrCirculantMatrix(m, n, seed=8)
            system = phi.matrix() @ transform.synthesis_matrix()
            y = phi.measure(x)
            lam = lambda_from_fraction(system, y, 0.002)
            result = fista(system, y, lam, max_iterations=3000, tolerance=1e-6)
            reconstruction = transform.inverse(result.coefficients)
            prds[m] = float(np.linalg.norm(x - reconstruction) / np.linalg.norm(x))
        assert prds[48] > 5.0 * prds[192]
