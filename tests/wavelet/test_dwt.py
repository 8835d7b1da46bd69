"""Tests for the periodized multi-level DWT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.wavelet import WaveletTransform


class TestConstruction:
    def test_defaults(self):
        t = WaveletTransform(512, "db4", 5)
        assert t.n == 512
        assert t.levels == 5

    def test_auto_levels(self):
        t = WaveletTransform(512, "db4", levels=None)
        # auto depth keeps every level's input at least 2x the filter
        # length: 512, 256, 128, 64, 32, 16 -> 6 levels for 8 taps
        assert t.levels == 6

    def test_auto_levels_haar(self):
        t = WaveletTransform(64, "haar", levels=None)
        assert t.levels == 5

    def test_indivisible_length_rejected(self):
        with pytest.raises(ConfigurationError):
            WaveletTransform(96, "db4", levels=6)

    def test_tiny_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            WaveletTransform(1, "haar")

    def test_zero_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            WaveletTransform(64, "db4", levels=0)


class TestTransformCorrectness:
    @pytest.mark.parametrize("wavelet", ["haar", "db2", "db4", "db8", "sym4"])
    @pytest.mark.parametrize("n,levels", [(64, 3), (256, 4), (512, 5)])
    def test_perfect_reconstruction(self, wavelet, n, levels, rng):
        t = WaveletTransform(n, wavelet, levels)
        x = rng.standard_normal(n)
        assert np.allclose(t.inverse(t.forward(x)), x, atol=1e-10)

    @pytest.mark.parametrize("wavelet", ["haar", "db4", "sym4"])
    def test_energy_preservation(self, wavelet, rng):
        t = WaveletTransform(128, wavelet, 4)
        x = rng.standard_normal(128)
        c = t.forward(x)
        assert np.dot(c, c) == pytest.approx(np.dot(x, x), rel=1e-12)

    def test_synthesis_matrix_is_orthonormal(self):
        t = WaveletTransform(128, "db4", 4)
        psi = t.synthesis_matrix()
        assert np.allclose(psi.T @ psi, np.eye(128), atol=1e-10)

    def test_forward_is_transpose_of_inverse(self, rng):
        t = WaveletTransform(128, "db4", 4)
        psi = t.synthesis_matrix()
        x = rng.standard_normal(128)
        assert np.allclose(t.forward(x), psi.T @ x, atol=1e-10)
        c = rng.standard_normal(128)
        assert np.allclose(t.inverse(c), psi @ c, atol=1e-10)

    def test_constant_signal_concentrates_in_approximation(self):
        t = WaveletTransform(256, "db4", 4)
        c = t.forward(np.ones(256))
        # coefficients run approximation first: 256 >> 4 of them
        detail_energy = float(np.sum(c[256 >> 4 :] ** 2))
        assert detail_energy == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self, rng):
        t = WaveletTransform(64, "db2", 3)
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        assert np.allclose(
            t.forward(2.0 * x - 3.0 * y),
            2.0 * t.forward(x) - 3.0 * t.forward(y),
            atol=1e-10,
        )

    def test_wrong_shape_rejected(self):
        t = WaveletTransform(64, "haar", 3)
        with pytest.raises(ValueError):
            t.forward(np.zeros(65))
        with pytest.raises(ValueError):
            t.inverse(np.zeros(63))

    def test_float32_stays_float32(self, rng):
        t = WaveletTransform(128, "db4", 4)
        x = rng.standard_normal(128).astype(np.float32)
        c = t.forward(x)
        assert c.dtype == np.float32
        assert t.inverse(c).dtype == np.float32

    def test_float32_reconstruction_close(self, rng):
        t = WaveletTransform(128, "db4", 4)
        x = rng.standard_normal(128).astype(np.float32)
        assert np.allclose(t.inverse(t.forward(x)), x, atol=1e-5)

    def test_ecg_is_sparse_in_db4(self, record_100):
        """The premise of the paper: ECG compresses in the wavelet domain."""
        from repro.ecg.resample import resample_record

        resampled = resample_record(record_100, 256.0)
        x = resampled.channel(0)[:512]
        t = WaveletTransform(512, "db4", 5)
        captured = t.sparsity_profile(x, keep=50)
        assert captured > 0.97  # 50 of 512 coefficients carry >97 % energy

    def test_sparsity_profile_edges(self, rng):
        t = WaveletTransform(64, "haar", 3)
        x = rng.standard_normal(64)
        assert t.sparsity_profile(x, keep=0) == 0.0
        assert t.sparsity_profile(x, keep=64) == pytest.approx(1.0)
        assert t.sparsity_profile(np.zeros(64), keep=1) == 1.0


class TestHypothesisProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        hnp.arrays(
            np.float64,
            128,
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    def test_roundtrip_any_signal(self, x):
        t = WaveletTransform(128, "db4", 4)
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.allclose(t.inverse(t.forward(x)), x, atol=1e-8 * scale)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 127))
    def test_basis_vectors_have_unit_norm(self, index):
        t = WaveletTransform(128, "db4", 4)
        e = np.zeros(128)
        e[index] = 1.0
        assert np.linalg.norm(t.inverse(e)) == pytest.approx(1.0, rel=1e-10)
