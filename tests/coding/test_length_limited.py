"""Tests for package-merge length-limited codes.

``reference_package_merge_lengths`` is the textbook form of the
algorithm — every item carries a ``{symbol: multiplicity}`` dict — and
is the oracle the array implementation must equal, errors included.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    huffman_code_lengths,
    package_merge_lengths,
    train_codebook,
)
from repro.coding.huffman import kraft_sum
from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.errors import CodebookError


def reference_package_merge_lengths(frequencies, max_length):
    """Package-merge over ``(weight, {symbol: multiplicity})`` items."""
    if max_length < 1:
        raise CodebookError(f"max_length must be >= 1, got {max_length}")
    if any(freq < 0 for freq in frequencies):
        raise CodebookError("frequencies must be non-negative")
    active = [
        (int(freq), index) for index, freq in enumerate(frequencies) if freq > 0
    ]
    if not active:
        raise CodebookError("at least one symbol must have nonzero frequency")

    lengths = [0] * len(frequencies)
    if len(active) == 1:
        lengths[active[0][1]] = 1
        return lengths
    if len(active) > (1 << max_length):
        raise CodebookError(
            f"{len(active)} symbols cannot be coded in <= {max_length} bits"
        )

    # at each of the max_length levels, pair adjacent items into
    # packages and merge with the original leaves; after the final level
    # the first 2*(n-1) items give each symbol's codeword length as its
    # total multiplicity across the taken items
    leaves = sorted(active)
    level = [(weight, {symbol: 1}) for weight, symbol in leaves]
    for _ in range(max_length - 1):
        packages = []
        for i in range(0, len(level) - 1, 2):
            weight = level[i][0] + level[i + 1][0]
            counts = dict(level[i][1])
            for symbol, multiplicity in level[i + 1][1].items():
                counts[symbol] = counts.get(symbol, 0) + multiplicity
            packages.append((weight, counts))
        merged = []
        leaf_iter = iter(leaves)
        package_iter = iter(packages)
        next_leaf = next(leaf_iter, None)
        next_package = next(package_iter, None)
        while next_leaf is not None or next_package is not None:
            take_leaf = next_package is None or (
                next_leaf is not None and next_leaf[0] <= next_package[0]
            )
            if take_leaf:
                merged.append((next_leaf[0], {next_leaf[1]: 1}))
                next_leaf = next(leaf_iter, None)
            else:
                merged.append(next_package)
                next_package = next(package_iter, None)
        level = merged

    needed = 2 * (len(active) - 1)
    if len(level) < needed:
        raise CodebookError("package-merge failed: not enough packages")
    for _, counts in level[:needed]:
        for symbol, multiplicity in counts.items():
            lengths[symbol] += multiplicity

    if max(lengths) > max_length:
        raise CodebookError("package-merge produced an over-long codeword")
    return lengths


def outcome(function, *args):
    """``("ok", value)`` or ``(exception class, message)``."""
    try:
        return "ok", function(*args)
    except CodebookError as exc:
        return type(exc), str(exc)


def assert_matches_reference(frequencies, max_length):
    assert outcome(package_merge_lengths, frequencies, max_length) == outcome(
        reference_package_merge_lengths, frequencies, max_length
    )


class TestPackageMerge:
    def test_matches_huffman_when_unconstrained(self):
        frequencies = [1, 1, 2, 4, 8, 16]
        unlimited = huffman_code_lengths(frequencies)
        limited = package_merge_lengths(frequencies, max_length=32)
        # same total cost (lengths may permute within equal frequencies)
        cost_u = sum(f * l for f, l in zip(frequencies, unlimited))
        cost_l = sum(f * l for f, l in zip(frequencies, limited))
        assert cost_u == cost_l

    def test_respects_length_cap(self):
        # exponential frequencies force deep Huffman trees
        frequencies = [2**i for i in range(12)]
        lengths = package_merge_lengths(frequencies, max_length=6)
        assert max(lengths) <= 6
        assert kraft_sum(lengths) <= 1.0 + 1e-12

    def test_single_symbol(self):
        assert package_merge_lengths([0, 7], 4) == [0, 1]

    def test_too_many_symbols_for_cap(self):
        with pytest.raises(CodebookError):
            package_merge_lengths([1] * 5, max_length=2)

    def test_exactly_full_tree(self):
        lengths = package_merge_lengths([1, 1, 1, 1], max_length=2)
        assert lengths == [2, 2, 2, 2]

    def test_invalid_cap(self):
        with pytest.raises(CodebookError):
            package_merge_lengths([1, 1], max_length=0)

    def test_negative_frequency(self):
        with pytest.raises(CodebookError):
            package_merge_lengths([1, -2], max_length=4)

    def test_no_active_symbols(self):
        with pytest.raises(CodebookError):
            package_merge_lengths([0, 0], max_length=4)

    def test_paper_alphabet_512_symbols_16_bits(self):
        """The paper's codebook: 512 symbols within 16-bit codewords."""
        import numpy as np

        values = np.arange(-256, 256)
        frequencies = np.maximum(
            1, (1e6 * np.exp(-np.abs(values) / 10.0)).astype(int)
        )
        lengths = package_merge_lengths([int(f) for f in frequencies], 16)
        assert len(lengths) == 512
        assert max(lengths) <= 16
        assert min(l for l in lengths if l > 0) >= 1
        assert kraft_sum(lengths) <= 1.0 + 1e-12

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.integers(0, 10_000), min_size=2, max_size=64).filter(
            lambda f: sum(1 for x in f if x > 0) >= 2
        ),
        st.integers(7, 16),
    )
    def test_kraft_inequality_always_holds(self, frequencies, cap):
        lengths = package_merge_lengths(frequencies, cap)
        assert max(lengths) <= cap
        assert kraft_sum(lengths) <= 1.0 + 1e-12
        for freq, length in zip(frequencies, lengths):
            assert (length > 0) == (freq > 0)

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.integers(1, 1000), min_size=2, max_size=32),
    )
    def test_cost_never_better_than_huffman(self, frequencies):
        """A constrained code can't beat the unconstrained optimum."""
        unlimited = huffman_code_lengths(frequencies)
        limited = package_merge_lengths(frequencies, max_length=8)
        cost_u = sum(f * l for f, l in zip(frequencies, unlimited))
        cost_l = sum(f * l for f, l in zip(frequencies, limited))
        assert cost_l >= cost_u


class TestMatchesReference:
    """The array package-merge returns the dict reference's lengths on
    every table, and raises its error class and message."""

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(0, 10_000), min_size=0, max_size=80),
        st.integers(0, 20),
    )
    def test_random_tables(self, frequencies, max_length):
        assert_matches_reference(frequencies, max_length)

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(0, 4), min_size=2, max_size=80),
        st.integers(1, 20),
    )
    def test_leaves_tied_with_packages(self, frequencies, max_length):
        """Small weights tie a leaf with a package at every level: the
        leaf must go first, as in the reference's ``<=``."""
        assert_matches_reference(frequencies, max_length)

    @settings(max_examples=60)
    @given(
        st.integers(1, 2**40), st.integers(1, 80), st.integers(1, 20)
    )
    def test_all_equal_weights(self, weight, count, max_length):
        assert_matches_reference([weight] * count, max_length)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.sampled_from([0, 0, 0, 1, 7]), min_size=1, max_size=60
        ),
        st.integers(1, 20),
    )
    def test_zeros_and_one_active_symbol(self, frequencies, max_length):
        assert_matches_reference(frequencies, max_length)
        lone = [0] * len(frequencies) + [5]
        assert_matches_reference(lone, max_length)

    @settings(max_examples=60)
    @given(
        st.integers(1, 6),
        st.data(),
    )
    def test_full_tree_and_one_symbol_more(self, max_length, data):
        """Exactly ``2**max_length`` active symbols fit; one more is
        the too-many-symbols error."""
        full = 1 << max_length
        weights = st.integers(1, 1000)
        frequencies = data.draw(
            st.lists(weights, min_size=full, max_size=full)
        )
        assert_matches_reference(frequencies, max_length)
        assert max(package_merge_lengths(frequencies, max_length)) <= max_length
        over = frequencies + [data.draw(weights)]
        assert_matches_reference(over, max_length)
        with pytest.raises(CodebookError, match="cannot be coded"):
            package_merge_lengths(over, max_length)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.integers(2**40 - 1000, 2**40 + 1000) | st.just(0),
            min_size=1,
            max_size=64,
        ),
        st.integers(1, 20),
    )
    def test_weights_near_2_to_the_40(self, frequencies, max_length):
        assert_matches_reference(frequencies, max_length)

    def test_weights_past_int64_stay_exact(self):
        """Sums that would overflow int64 fall back to Python ints: two
        weights 1 apart above 2**62 must still order correctly."""
        frequencies = [2**62 + 1, 2**62, 3, 2**63, 2**62 + 1, 1]
        for max_length in (3, 4, 16):
            assert_matches_reference(frequencies, max_length)

    def test_skewed_paper_alphabet(self):
        frequencies = [2**i % 1_000_003 + (i % 3 == 0) for i in range(512)]
        for max_length in (9, 12, 16, 19):
            assert_matches_reference(frequencies, max_length)


class TestGoldenCodebooks:
    """The default and calibrated codebooks are the ones the parent's
    dict package-merge trained: the lengths are the wire contract (a
    HELLO carries them, a node's flash holds them)."""

    GOLDEN = {
        "default": "143148a3e108c8a3a2060b413ac1a70e"
        "95dad8b384c8866599b1c713cacc4915",
        "100": "fffd7a8512d1fc1b0bbd65da7f219d86"
        "04eae2eadc231152f6794454029984b8",
        "119": "e6c2784529558298c0b38e252122392a"
        "c210318f801b3ad0686d45ad53308642",
    }

    @staticmethod
    def _digest(codebook):
        return hashlib.sha256(codebook.to_json().encode()).hexdigest()

    def test_default_codebook(self):
        assert self._digest(train_codebook()) == self.GOLDEN["default"]

    @pytest.mark.parametrize("name", ["100", "119"])
    def test_calibrated_codebook(self, database, name):
        system = EcgMonitorSystem(SystemConfig())
        system.calibrate(database.load(name))
        assert self._digest(system.encoder.codebook) == self.GOLDEN[name]
