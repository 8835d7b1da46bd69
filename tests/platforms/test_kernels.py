"""Tests for the kernel op-count profiles."""

from __future__ import annotations

from repro.config import SystemConfig
from repro.platforms.kernels import (
    KernelCounts,
    difference_counts,
    dense_matvec_counts,
    dwt_counts,
    encoder_packet_counts,
    gaussian_generation_counts,
    huffman_decode_counts,
    huffman_encode_counts,
    idwt_counts,
    momentum_counts,
    packet_reconstruction_counts,
    prox_counts,
    quantize_counts,
    sparse_matvec_float_counts,
    sparse_sensing_counts,
)


class TestKernelCounts:
    def test_addition_merges_fields(self):
        a = KernelCounts(name="a", int_ops=5, loads=2)
        b = KernelCounts(name="b", int_ops=3, stores=1)
        merged = a + b
        assert merged.int_ops == 8
        assert merged.loads == 2
        assert merged.stores == 1



class TestEncoderKernels:
    def test_sparse_sensing_counts_paper_point(self, paper_config):
        counts = sparse_sensing_counts(paper_config)
        assert counts.int32_adds == 512 * 12
        assert counts.prng_draws == 512 * 12
        assert counts.float_macs == 0  # integer-only pipeline

    def test_stored_index_variant_uses_table(self, paper_config):
        counts = sparse_sensing_counts(paper_config, regenerate_indices=False)
        assert counts.prng_draws == 0
        assert counts.table_lookups == 512 * 12

    def test_quantize_difference_scale_with_m(self, paper_config):
        q = quantize_counts(paper_config)
        d = difference_counts(paper_config)
        assert q.int_ops == 3 * 256
        assert d.int_ops == 4 * 256

    def test_huffman_encode_bits(self, paper_config):
        counts = huffman_encode_counts(paper_config, mean_bits_per_symbol=6.0)
        assert counts.bit_ops == 1536

    def test_encoder_packet_is_sum_of_stages(self, paper_config):
        total = encoder_packet_counts(paper_config)
        parts = (
            sparse_sensing_counts(paper_config)
            + quantize_counts(paper_config)
            + difference_counts(paper_config)
            + huffman_encode_counts(paper_config, 6.0)
        )
        assert total.int32_adds == parts.int32_adds
        assert total.bit_ops == parts.bit_ops

    def test_gaussian_generation_scale(self, paper_config):
        counts = gaussian_generation_counts(paper_config)
        assert counts.prng_draws == 2 * 256 * 512
        assert counts.int_muls == 256 * 512

    def test_dense_matvec_scale(self, paper_config):
        counts = dense_matvec_counts(paper_config)
        assert counts.int_muls == 256 * 512
        assert counts.int32_adds == 256 * 512


class TestDecoderKernels:
    def test_filter_bank_mac_count(self, paper_config):
        counts = idwt_counts(paper_config, filter_length=8)
        # levels 5: halves 256,128,64,32,16 -> 2*8*sum = 7936
        assert counts.float_macs == 2 * 8 * (256 + 128 + 64 + 32 + 16)

    def test_dwt_idwt_symmetric(self, paper_config):
        assert (
            dwt_counts(paper_config).float_macs
            == idwt_counts(paper_config).float_macs
        )

    def test_sparse_matvec_float(self, paper_config):
        counts = sparse_matvec_float_counts(paper_config)
        assert counts.float_ops == 512 * 12
        assert counts.loads == 2 * 512 * 12

    def test_prox_counts(self, paper_config):
        assert prox_counts(paper_config).float_ops == 4 * 512

    def test_huffman_decode_counts(self, paper_config):
        counts = huffman_decode_counts(paper_config, 6.0)
        assert counts.bit_ops == 1536
        assert counts.stores == 256

    def test_packet_reconstruction_counts(self, paper_config):
        counts = packet_reconstruction_counts(paper_config)
        assert counts.float_ops == 256

    def test_momentum_scales_with_n_and_m(self, paper_config):
        counts = momentum_counts(paper_config)
        assert counts.float_ops == 3 * 512 + 2 * 256
