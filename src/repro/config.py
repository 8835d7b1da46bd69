"""System-level configuration for the CS-based ECG monitor.

The paper fixes most of these values implicitly: the Shimmer node samples
ECG at 256 Hz and processes 2-second packets, i.e. ``N = 512`` samples per
packet; the sparse binary sensing matrix uses ``d = 12`` ones per column;
the difference signal before entropy coding lives in ``[-256, 255]`` so the
Huffman codebook has 512 symbols with codewords of at most 16 bits.

:class:`SystemConfig` bundles those choices, validates them, and derives
the quantities the rest of the library needs (measurement count for a
target compression ratio, wavelet decomposition depth, packet rate...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any

from .errors import ConfigurationError

#: Sampling rate of the node-side ECG front end, in hertz (paper: 256 Hz).
NODE_SAMPLE_RATE_HZ = 256

#: Duration of one CS packet, in seconds (paper: 2 s).
PACKET_SECONDS = 2.0

#: Samples per packet: ``N = 512`` in the paper.
PACKET_SAMPLES = int(round(NODE_SAMPLE_RATE_HZ * PACKET_SECONDS))

#: ADC resolution of the stored MIT-BIH records (11-bit over 10 mV).
MITBIH_ADC_BITS = 11

#: MIT-BIH native sampling rate, in hertz.
MITBIH_SAMPLE_RATE_HZ = 360

#: Bits used to represent one original (uncompressed) sample on the air.
#: MIT-BIH samples are 11-bit; they are carried in 16-bit words on the
#: serial link but compression ratios in the CS-ECG literature are counted
#: against the 12-bit packed representation used by PhysioNet's ``212``
#: format.  We follow that convention.
ORIGINAL_SAMPLE_BITS = 12

#: Range of the inter-packet difference signal entering the entropy coder.
DIFF_MIN = -256
DIFF_MAX = 255

#: Number of symbols in the Huffman codebook (paper: 512).
HUFFMAN_SYMBOLS = DIFF_MAX - DIFF_MIN + 1

#: Maximum Huffman codeword length, in bits (paper: 16).
HUFFMAN_MAX_CODE_BITS = 16


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class SystemConfig:
    """Complete parameter set of the CS encoder/decoder pair.

    Parameters
    ----------
    n:
        Samples per packet (signal dimension ``N``).  Must be a power of
        two so the periodized wavelet transform is defined at every level.
    m:
        Number of CS measurements per packet (``M`` rows of ``Phi``).
    d:
        Ones per column of the sparse binary sensing matrix.
    wavelet:
        Name of the orthonormal wavelet used as the sparsifying basis
        ``Psi`` (e.g. ``"db4"``; see :mod:`repro.wavelet.filters`).
    levels:
        Wavelet decomposition depth.  ``None`` selects the maximum depth
        allowed by ``n`` and the filter length.
    lam:
        The Lagrangian weight ``lambda`` of the l1 term in the FISTA
        objective ``||A alpha - y||^2 + lambda * ||alpha||_1``.  Expressed
        as a fraction of ``||A^T y||_inf`` (a standard normalization), so
        the same value is meaningful across compression ratios.
    max_iterations:
        Hard iteration cap of the reconstruction solver.  The paper's
        real-time budget allows up to 2000 iterations on the optimized
        decoder and 800 on the unoptimized one.
    tolerance:
        Relative-change stopping tolerance of the solver.
    sample_rate_hz:
        Node sampling rate (256 Hz in the paper).
    adc_bits:
        Resolution of samples entering the encoder.
    original_sample_bits:
        Bits/sample charged to the uncompressed stream when computing CR.
    keyframe_interval:
        A keyframe (raw measurement vector, no differencing) is emitted
        every ``keyframe_interval`` packets so decoding can (re)start and
        saturation drift stays bounded.
    seed:
        Seed for the sensing-matrix construction.  Node and coordinator
        must share it (the paper stores the same fixed matrix on both).
    """

    n: int = PACKET_SAMPLES
    m: int = 256
    d: int = 12
    wavelet: str = "db4"
    levels: int | None = 5
    lam: float = 0.002
    max_iterations: int = 2000
    tolerance: float = 1e-5
    sample_rate_hz: int = NODE_SAMPLE_RATE_HZ
    adc_bits: int = MITBIH_ADC_BITS
    original_sample_bits: int = ORIGINAL_SAMPLE_BITS
    keyframe_interval: int = 16
    seed: int = 2011

    def __post_init__(self) -> None:
        # a node-supplied config arrives as JSON: 1.5, Infinity, NaN and
        # true are refused before any range check compares them
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is int or (name == "levels" and value is None):
                continue
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        if not _is_power_of_two(self.n):
            raise ConfigurationError(f"n must be a power of two, got {self.n}")
        if not 0 < self.m <= self.n:
            raise ConfigurationError(
                f"m must satisfy 0 < m <= n={self.n}, got {self.m}"
            )
        if not 0 < self.d <= self.m:
            raise ConfigurationError(
                f"d must satisfy 0 < d <= m={self.m}, got {self.d}"
            )
        if self.levels is not None and self.levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {self.levels}")
        # NaN passes every ordered comparison, and json.loads reads the
        # bare literal: a node-supplied lam/tolerance must be finite
        if not 0 < self.lam < math.inf:
            raise ConfigurationError(
                f"lam must be positive and finite, got {self.lam}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not 0 < self.tolerance < math.inf:
            raise ConfigurationError(
                f"tolerance must be positive and finite, got {self.tolerance}"
            )
        # a node's declared cadence sets its link's idle deadline
        if self.sample_rate_hz <= 0:
            raise ConfigurationError(
                f"sample_rate_hz must be positive, got {self.sample_rate_hz}"
            )
        if not 1 <= self.adc_bits <= 16:
            raise ConfigurationError(
                f"adc_bits must be in [1, 16], got {self.adc_bits}"
            )
        if self.original_sample_bits < self.adc_bits:
            raise ConfigurationError(
                "original_sample_bits must be >= adc_bits "
                f"({self.original_sample_bits} < {self.adc_bits})"
            )
        if self.keyframe_interval < 1:
            raise ConfigurationError(
                f"keyframe_interval must be >= 1, got {self.keyframe_interval}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def packet_seconds(self) -> float:
        """Duration of one packet in seconds."""
        return self.n / self.sample_rate_hz

    @property
    def nominal_cr_percent(self) -> float:
        """Compression ratio ignoring entropy coding, in percent.

        ``CR = (b_orig - b_comp) / b_orig * 100`` with ``b_comp`` counted
        as ``m`` measurements carried at ``original_sample_bits`` each.
        Entropy coding improves on this; the actual achieved CR is
        measured by the encoder on real payloads.
        """
        return 100.0 * (1.0 - self.m / self.n)

    def with_target_cr(self, cr_percent: float) -> "SystemConfig":
        """Return a copy whose ``m`` targets the given *nominal* CR."""
        if not 0.0 <= cr_percent < 100.0:
            raise ConfigurationError(
                f"cr_percent must be in [0, 100), got {cr_percent}"
            )
        m = int(round(self.n * (1.0 - cr_percent / 100.0)))
        m = max(self.d, min(self.n, m))
        return replace(self, m=m)

    def replace(self, **changes: Any) -> "SystemConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)

    @property
    def original_packet_bits(self) -> int:
        """Bits of one uncompressed packet (``b_orig``)."""
        return self.n * self.original_sample_bits

    def summary(self) -> str:
        """One-line human-readable summary used by examples and logs."""
        return (
            f"SystemConfig(n={self.n}, m={self.m}, d={self.d}, "
            f"wavelet={self.wavelet}, levels={self.levels}, "
            f"lam={self.lam}, nominal_cr={self.nominal_cr_percent:.1f}%)"
        )


#: the fields declared ``int`` (``levels`` may also be ``None``)
_INT_FIELDS = tuple(
    spec.name for spec in fields(SystemConfig) if spec.type.startswith("int")
)

#: The configuration matching the paper's headline operating point
#: (CR = 50 % nominal, d = 12, 2-second packets at 256 Hz).
PAPER_DEFAULT = SystemConfig()
