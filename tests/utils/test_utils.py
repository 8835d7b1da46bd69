"""Tests for validation helpers and deterministic seeding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import (
    check_integer_array,
    check_positive,
    check_same_length,
    derive_seed,
    rng_from,
)


class TestValidation:
    def test_check_integer_array(self):
        arr = check_integer_array(np.array([1, 2, 3]), low=0, high=5)
        assert arr.dtype.kind == "i"

    def test_check_integer_array_rejects_floats(self):
        with pytest.raises(TypeError):
            check_integer_array(np.array([1.0]))

    def test_check_integer_array_bounds(self):
        with pytest.raises(ValueError):
            check_integer_array(np.array([-1]), low=0)
        with pytest.raises(ValueError):
            check_integer_array(np.array([10]), high=5)

    def test_check_positive(self):
        assert check_positive(2.5) == 2.5
        with pytest.raises(ValueError):
            check_positive(0.0)
        with pytest.raises(ValueError):
            check_positive(-1.0)

    def test_check_same_length(self):
        check_same_length(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            check_same_length(np.zeros(3), np.zeros(4))


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_labels_change_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_63_bit_range(self):
        seed = derive_seed(123456789, "x")
        assert 0 <= seed < 2**63

    def test_rng_from_reproducible(self):
        a = rng_from(7, "stream").standard_normal(5)
        b = rng_from(7, "stream").standard_normal(5)
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    def test_distinct_label_pairs_rarely_collide(self, x, y):
        if x != y:
            assert derive_seed(0, x) != derive_seed(0, y)
