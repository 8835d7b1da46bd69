"""Operation-count profiles of every encoder/decoder kernel.

A :class:`KernelCounts` is a platform-independent inventory of the work
one kernel performs (integer ops, floating MACs, memory traffic, PRNG
draws, branches).  Platform models multiply these counts by their cycle
tables.  Keeping the counts separate from the tables means the MSP430
and Cortex-A8 models share one ground truth about *what* the algorithms
do, and differ only in *how fast* their hardware does it.

Counts are exact functions of the system configuration (N, M, d, filter
length, decomposition levels), not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..config import SystemConfig


@dataclass(frozen=True)
class KernelCounts:
    """Operation inventory of one kernel execution."""

    name: str = "kernel"
    #: 16-bit integer add/sub/compare operations
    int_ops: int = 0
    #: 32-bit (double-word on MSP430) accumulator additions
    int32_adds: int = 0
    #: integer multiplications (hardware multiplier on MSP430)
    int_muls: int = 0
    #: PRNG draws (xorshift/LFSR steps incl. rejection average)
    prng_draws: int = 0
    #: single-precision floating multiply-accumulates
    float_macs: int = 0
    #: other single-precision floating ops (add/sub/mul/cmp)
    float_ops: int = 0
    #: memory loads (words)
    loads: int = 0
    #: memory stores (words)
    stores: int = 0
    #: table lookups (flash-resident tables)
    table_lookups: int = 0
    #: data-dependent branches
    branches: int = 0
    #: per-output-bit bitstream operations
    bit_ops: int = 0

    def __add__(self, other: "KernelCounts") -> "KernelCounts":
        merged = {}
        for f in fields(self):
            if f.name == "name":
                continue
            merged[f.name] = getattr(self, f.name) + getattr(other, f.name)
        return KernelCounts(name=f"{self.name}+{other.name}", **merged)

    def scaled(self, factor: int, name: str | None = None) -> "KernelCounts":
        """Counts repeated ``factor`` times (e.g. per-iteration -> per-solve)."""
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        scaled = {}
        for f in fields(self):
            if f.name == "name":
                continue
            scaled[f.name] = getattr(self, f.name) * factor
        return KernelCounts(name=name or f"{self.name}x{factor}", **scaled)


@dataclass(frozen=True)
class KernelReport:
    """A kernel's counts priced by some platform: cycles and seconds."""

    name: str
    cycles: float
    seconds: float


# ----------------------------------------------------------------------
# Encoder-side kernels (integer pipeline on the mote)
# ----------------------------------------------------------------------

def sparse_sensing_counts(config: SystemConfig, regenerate_indices: bool = True) -> KernelCounts:
    """Stage 1: ``y_int = sum of selected samples`` over all N*d nonzeros.

    With on-the-fly index regeneration (the flash-frugal firmware layout:
    the row-index table is *not* stored; the PRNG re-derives it each
    packet) every nonzero costs one PRNG draw, one address computation,
    one 32-bit accumulate and the loop bookkeeping.
    """
    nnz = config.n * config.d
    return KernelCounts(
        name="sparse-sensing",
        prng_draws=nnz if regenerate_indices else 0,
        int32_adds=nnz,
        int_ops=nnz + config.n,  # address arithmetic + per-column setup
        loads=nnz + config.n,  # accumulator reads + one sample read/column
        stores=nnz,
        branches=nnz,  # inner-loop back edge
        table_lookups=0 if regenerate_indices else nnz,
    )


def quantize_counts(config: SystemConfig) -> KernelCounts:
    """Shift-with-rounding quantizer over M accumulators."""
    return KernelCounts(
        name="quantize",
        int_ops=3 * config.m,  # add half, shift, sign fix
        loads=config.m,
        stores=config.m,
        branches=config.m,
    )


def difference_counts(config: SystemConfig) -> KernelCounts:
    """Redundancy removal: subtract, clip, update reference (closed loop)."""
    return KernelCounts(
        name="difference",
        int_ops=4 * config.m,  # subtract, two clip compares, reference add
        loads=2 * config.m,
        stores=2 * config.m,
        branches=2 * config.m,
    )


def huffman_encode_counts(config: SystemConfig, mean_bits_per_symbol: float) -> KernelCounts:
    """Entropy coding of M symbols, table-driven canonical Huffman."""
    total_bits = int(round(config.m * mean_bits_per_symbol))
    return KernelCounts(
        name="huffman-encode",
        table_lookups=2 * config.m,  # codeword + length tables
        int_ops=2 * config.m,
        bit_ops=total_bits,
        loads=config.m,
        stores=(total_bits + 15) // 16,
        branches=config.m,
    )


def encoder_packet_counts(
    config: SystemConfig,
    mean_bits_per_symbol: float = 6.0,
    regenerate_indices: bool = True,
) -> KernelCounts:
    """Full node-side pipeline for one difference packet."""
    return (
        sparse_sensing_counts(config, regenerate_indices)
        + quantize_counts(config)
        + difference_counts(config)
        + huffman_encode_counts(config, mean_bits_per_symbol)
    )


def gaussian_generation_counts(config: SystemConfig, ops_per_draw: int = 6) -> KernelCounts:
    """Rejected approach 1: on-board 8-bit Gaussian generation of Phi.

    ``ops_per_draw`` integer/table operations per Gaussian draw (two PRNG
    draws, two table lookups, one multiply, one shift — see
    :class:`repro.sensing.rng.FixedPointGaussian`), for all M*N entries.
    """
    entries = config.m * config.n
    return KernelCounts(
        name="gaussian-generation",
        prng_draws=2 * entries,
        table_lookups=2 * entries,
        int_muls=entries,
        int_ops=(ops_per_draw - 5) * entries if ops_per_draw > 5 else 0,
        stores=entries,
        branches=entries,
    )


def dense_matvec_counts(config: SystemConfig) -> KernelCounts:
    """Rejected approach 2: dense M x N 16-bit matrix multiply."""
    entries = config.m * config.n
    return KernelCounts(
        name="dense-matvec",
        int_muls=entries,
        int32_adds=entries,
        loads=2 * entries,
        stores=config.m,
        int_ops=entries,
        branches=entries,
    )


# ----------------------------------------------------------------------
# Decoder-side kernels (float pipeline on the coordinator)
# ----------------------------------------------------------------------

def _filter_bank_macs(config: SystemConfig, filter_length: int = 8) -> int:
    """MACs of one full periodized DWT or IDWT (all levels)."""
    levels = config.levels if config.levels is not None else 5
    total = 0
    length = config.n
    for _ in range(levels):
        half = length // 2
        total += 2 * filter_length * half  # low-pass and high-pass banks
        length = half
    return total


def idwt_counts(config: SystemConfig, filter_length: int = 8) -> KernelCounts:
    """Wavelet synthesis ``Psi alpha`` (the decoder's hot filter banks)."""
    macs = _filter_bank_macs(config, filter_length)
    return KernelCounts(
        name="idwt",
        float_macs=macs,
        loads=2 * macs,
        stores=macs // filter_length,
        branches=macs // filter_length,
    )


def dwt_counts(config: SystemConfig, filter_length: int = 8) -> KernelCounts:
    """Wavelet analysis ``Psi^T r`` (adjoint filter banks)."""
    counts = idwt_counts(config, filter_length)
    return KernelCounts(
        name="dwt",
        float_macs=counts.float_macs,
        loads=counts.loads,
        stores=counts.stores,
        branches=counts.branches,
    )


def sparse_matvec_float_counts(config: SystemConfig) -> KernelCounts:
    """``Phi v`` or ``Phi^T r`` with the sparse binary structure (gather)."""
    nnz = config.n * config.d
    return KernelCounts(
        name="sparse-matvec",
        float_ops=nnz,  # adds
        loads=2 * nnz,  # irregular gathers: index + value
        stores=nnz // config.d,
        int_ops=nnz,  # index arithmetic
        branches=nnz // config.d,
    )


def prox_counts(config: SystemConfig) -> KernelCounts:
    """Soft threshold over N coefficients (Figure 4's loop)."""
    return KernelCounts(
        name="prox",
        float_ops=4 * config.n,  # abs, sub, max, sign-mul
        loads=config.n,
        stores=config.n,
        branches=config.n,  # in the branchy form; masked form keeps count
    )


def momentum_counts(config: SystemConfig) -> KernelCounts:
    """FISTA momentum extrapolation + residual update vector ops."""
    return KernelCounts(
        name="momentum",
        float_ops=3 * config.n + 2 * config.m,
        loads=2 * config.n + config.m,
        stores=config.n + config.m,
        branches=(config.n + config.m) // 4,
    )


def huffman_decode_counts(config: SystemConfig, mean_bits_per_symbol: float = 6.0) -> KernelCounts:
    """Canonical Huffman decoding of M symbols (bit-serial)."""
    total_bits = int(round(config.m * mean_bits_per_symbol))
    return KernelCounts(
        name="huffman-decode",
        bit_ops=total_bits,
        table_lookups=total_bits,  # first-code/first-rank per length step
        int_ops=2 * total_bits,
        branches=total_bits,
        stores=config.m,
    )


def packet_reconstruction_counts(config: SystemConfig) -> KernelCounts:
    """Re-inserting redundancy + dequantization on the decoder."""
    return KernelCounts(
        name="packet-reconstruction",
        int_ops=2 * config.m,
        float_ops=config.m,  # dequantize scale
        loads=2 * config.m,
        stores=2 * config.m,
    )
