"""Tests for codebook training, storage accounting and serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    BitReader,
    Codebook,
    HuffmanCode,
    laplacian_frequencies,
    train_codebook,
)
from repro.coding.codebook import empirical_entropy_bits
from repro.errors import CodebookError


class TestTraining:
    def test_default_codebook_covers_full_range(self):
        codebook = train_codebook()
        assert codebook.num_symbols == 512
        assert codebook.min_value == -256
        assert codebook.max_value == 255
        # every symbol must be encodable (complete codebook)
        for value in (-256, -1, 0, 1, 255):
            symbol = codebook.symbol_for(value)
            code, length = codebook.code.codeword(symbol)
            assert 1 <= length <= 16

    def test_length_cap_respected(self):
        codebook = train_codebook(max_length=12)
        assert codebook.code.max_length <= 12

    def test_training_on_samples_shortens_frequent_symbols(self):
        samples = [0] * 10_000 + [100] * 10
        codebook = train_codebook(samples)
        zero_len = codebook.code.lengths[codebook.symbol_for(0)]
        rare_len = codebook.code.lengths[codebook.symbol_for(100)]
        assert zero_len < rare_len

    def test_out_of_range_training_value_rejected(self):
        with pytest.raises(CodebookError):
            train_codebook([300])

    def test_out_of_range_error_names_the_first_offending_value(self):
        import numpy as np

        for samples in ([5, 300, -300], np.array([5, 300, -300])):
            with pytest.raises(
                CodebookError, match=r"training value 300 outside \[-256, 255\]"
            ):
                train_codebook(samples)

    def test_list_array_and_iterator_train_the_same_codebook(self):
        import numpy as np

        values = [0, 0, 1, -1, 3, 255, -256, 0]
        want = train_codebook(values).to_json()
        assert train_codebook(np.array(values)).to_json() == want
        assert train_codebook(iter(values)).to_json() == want

    def test_negative_floor_rejected(self):
        with pytest.raises(CodebookError):
            train_codebook([0], laplace_floor=-1)

    def test_symbol_value_mapping_roundtrip(self):
        codebook = train_codebook()
        for value in range(-256, 256, 37):
            assert codebook.value_for(codebook.symbol_for(value)) == value

    def test_symbol_out_of_range(self):
        codebook = train_codebook()
        with pytest.raises(CodebookError):
            codebook.symbol_for(256)
        with pytest.raises(CodebookError):
            codebook.value_for(512)


class TestStorageModel:
    def test_paper_flash_footprint(self):
        """1 kB codewords + 512 B lengths for the 512-symbol codebook."""
        codebook = train_codebook()
        flash = codebook.flash_bytes()
        assert flash["codeword_table"] == 1024
        assert flash["length_table"] == 512
        assert flash["total"] == 1536

    def test_mean_bits_per_symbol_positive(self):
        codebook = train_codebook()
        frequencies = laplacian_frequencies()
        mean = codebook.mean_bits_per_symbol(frequencies)
        assert 1.0 < mean < 16.0

    def test_mean_bits_rejects_zero_total(self):
        codebook = train_codebook()
        with pytest.raises(CodebookError):
            codebook.mean_bits_per_symbol([0] * 512)


class TestSerialization:
    def test_json_roundtrip(self):
        codebook = train_codebook()
        clone = Codebook.from_payload(json.loads(codebook.to_json()))
        assert clone.offset == codebook.offset
        assert clone.code.lengths == codebook.code.lengths

    def test_malformed_payload_rejected(self):
        with pytest.raises(CodebookError):
            Codebook.from_payload("{not json")
        with pytest.raises(CodebookError):
            Codebook.from_payload({"offset": 0})

    def test_payload_codeword_lengths_capped(self):
        """``from_payload`` is the wire entry: lengths past the paper's
        16-bit cap are refused there; building an unbounded code
        offline (the length-limit ablation) is not."""
        at_cap = {"offset": 0, "lengths": [1, 2, 16]}
        assert Codebook.from_payload(at_cap).code.max_length == 16
        with pytest.raises(CodebookError, match="16-bit cap"):
            Codebook.from_payload({"offset": 0, "lengths": [1, 2, 17]})
        unbounded = HuffmanCode([1, 2, 40])
        assert unbounded.max_length == 40

    def test_roundtripped_codebook_decodes(self):
        codebook = train_codebook()
        clone = Codebook.from_payload(json.loads(codebook.to_json()))
        message = [-5, 0, 3, 255, -256]
        writer = codebook.code.encode(
            [codebook.symbol_for(v) for v in message]
        )
        reader = BitReader(writer.getvalue(), bit_length=len(writer))
        decoded = [
            clone.value_for(s) for s in clone.code.decode(reader, len(message))
        ]
        assert decoded == message


class TestEntropyHelpers:
    def test_empirical_entropy_uniform(self):
        assert empirical_entropy_bits([0, 1, 2, 3]) == pytest.approx(2.0)

    def test_empirical_entropy_constant(self):
        assert empirical_entropy_bits([7] * 10) == pytest.approx(0.0)

    def test_empirical_entropy_empty_rejected(self):
        with pytest.raises(CodebookError):
            empirical_entropy_bits([])

    def test_huffman_mean_length_within_one_bit_of_entropy(self):
        """Huffman optimality on the training corpus: H <= L < H + 1."""
        import numpy as np

        rng = np.random.default_rng(0)
        samples = np.clip(
            np.round(rng.laplace(scale=10.0, size=20_000)), -256, 255
        ).astype(int)
        codebook = train_codebook(list(samples))
        counts = np.bincount(samples - codebook.offset, minlength=512)
        mean_bits = codebook.mean_bits_per_symbol(counts.tolist())
        entropy = empirical_entropy_bits(list(samples))
        assert entropy - 1e-9 <= mean_bits < entropy + 0.3

    def test_laplacian_frequencies_shape(self):
        frequencies = laplacian_frequencies(num_symbols=512)
        assert len(frequencies) == 512
        assert all(f >= 1 for f in frequencies)
        # symmetric-ish and peaked at the center
        assert frequencies[256] == max(frequencies)

    def test_laplacian_rejects_bad_params(self):
        with pytest.raises(CodebookError):
            laplacian_frequencies(num_symbols=1)
        with pytest.raises(CodebookError):
            laplacian_frequencies(scale=0.0)

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.integers(-256, 255), min_size=1, max_size=300))
    def test_trained_codebook_roundtrips_any_in_range_stream(self, values):
        codebook = train_codebook(values)
        writer = codebook.code.encode(
            [codebook.symbol_for(v) for v in values]
        )
        reader = BitReader(writer.getvalue(), bit_length=len(writer))
        decoded = [
            codebook.value_for(s)
            for s in codebook.code.decode(reader, len(values))
        ]
        assert decoded == values
