"""Tests for CR / PRD / SNR metrics (paper Section III)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics import (
    compression_ratio,
    prd,
    snr_db,
    snr_from_prd,
)


class TestCompressionRatio:
    def test_half_size_is_50_percent(self):
        assert compression_ratio(1000, 500) == pytest.approx(50.0)

    def test_no_compression_is_zero(self):
        assert compression_ratio(1000, 1000) == pytest.approx(0.0)

    def test_expansion_is_negative(self):
        assert compression_ratio(1000, 1200) < 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            compression_ratio(0, 10)
        with pytest.raises(ValueError):
            compression_ratio(10, -1)

    @given(st.integers(1, 10**9), st.integers(0, 10**9))
    def test_bounded_above_by_100(self, original, compressed):
        assert compression_ratio(original, compressed) <= 100.0


class TestPrdSnr:
    def test_perfect_reconstruction_prd_zero(self, rng):
        x = rng.standard_normal(100)
        assert prd(x, x) == pytest.approx(0.0)

    def test_zero_reconstruction_prd_100(self, rng):
        x = rng.standard_normal(100)
        assert prd(x, np.zeros(100)) == pytest.approx(100.0)

    def test_known_value(self):
        x = np.array([3.0, 4.0])  # norm 5
        r = np.array([3.0, 3.0])  # error norm 1
        assert prd(x, r) == pytest.approx(20.0)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            prd(np.zeros(4), np.ones(4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prd(np.zeros(4), np.zeros(5))

    def test_snr_from_prd_anchors(self):
        assert snr_from_prd(100.0) == pytest.approx(0.0)
        assert snr_from_prd(10.0) == pytest.approx(20.0)
        assert snr_from_prd(1.0) == pytest.approx(40.0)

    @given(st.floats(min_value=0.01, max_value=1000.0))
    def test_snr_monotone_decreasing_in_prd(self, prd_percent):
        assert snr_from_prd(prd_percent) >= snr_from_prd(prd_percent * 1.5) - 1e-9

    def test_snr_db_composition(self, rng):
        x = rng.standard_normal(64)
        r = x + 0.1 * rng.standard_normal(64)
        assert snr_db(x, r) == pytest.approx(snr_from_prd(prd(x, r)))

    def test_snr_rejects_zero_prd(self):
        with pytest.raises(ValueError):
            snr_from_prd(0.0)

    def test_prd_inflated_by_dc_unless_centered(self, rng):
        """Why the metrics are computed on centered signals."""
        x = rng.standard_normal(128)
        r = x + 0.3 * rng.standard_normal(128)
        assert prd(x + 1000.0, r + 1000.0) < 0.1  # DC masks the error
        mean = np.mean(x + 1000.0)
        assert prd(x + 1000.0 - mean, r + 1000.0 - mean) > 1.0

    @settings(max_examples=30)
    @given(
        hnp.arrays(np.float64, 32, elements=st.floats(-100, 100)),
        hnp.arrays(np.float64, 32, elements=st.floats(-100, 100)),
    )
    def test_prd_nonnegative_and_symmetric_error(self, x, e):
        if np.linalg.norm(x) == 0:
            return
        assert prd(x, x + e) >= 0.0
        assert prd(x, x + e) == pytest.approx(prd(x, x - e))
