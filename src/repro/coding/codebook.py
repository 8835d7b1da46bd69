"""Offline Huffman codebook: training, storage model, serialization.

The paper trains a single Huffman codebook offline over the difference
signal (range ``[-256, 255]``, 512 symbols, codewords capped at 16 bits)
and stores it in the mote's flash: "1 kB for the codebook itself and
512 B for its corresponding codeword lengths".  That is exactly a table of
512 16-bit codewords (1024 B) plus 512 8-bit lengths (512 B);
:meth:`Codebook.flash_bytes` reproduces this accounting.

Because real firmware must code *any* symbol in range (not only those
seen during training), training adds a +1 Laplace floor to every symbol
frequency so the codebook is complete.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import DIFF_MAX, DIFF_MIN, HUFFMAN_MAX_CODE_BITS, HUFFMAN_SYMBOLS
from ..errors import CodebookError
from .huffman import HuffmanCode
from .length_limited import package_merge_lengths


@dataclass(frozen=True)
class Codebook:
    """A trained, length-limited canonical Huffman codebook.

    Symbols are difference values shifted to ``0 .. num_symbols-1``:
    symbol ``s`` encodes difference value ``s + offset``.
    """

    code: HuffmanCode
    offset: int

    @property
    def num_symbols(self) -> int:
        """Alphabet size (512 for the paper's difference signal)."""
        return self.code.num_symbols

    @property
    def min_value(self) -> int:
        """Smallest encodable difference value."""
        return self.offset

    @property
    def max_value(self) -> int:
        """Largest encodable difference value."""
        return self.offset + self.num_symbols - 1

    def symbol_for(self, value: int) -> int:
        """Map a difference value to its symbol index."""
        symbol = int(value) - self.offset
        if not 0 <= symbol < self.num_symbols:
            raise CodebookError(
                f"value {value} outside codebook range "
                f"[{self.min_value}, {self.max_value}]"
            )
        return symbol

    def value_for(self, symbol: int) -> int:
        """Map a symbol index back to its difference value."""
        if not 0 <= symbol < self.num_symbols:
            raise CodebookError(f"symbol {symbol} outside alphabet")
        return symbol + self.offset

    # ------------------------------------------------------------------
    # Firmware storage model
    # ------------------------------------------------------------------
    def flash_bytes(self) -> dict[str, int]:
        """Flash footprint of the stored codebook, byte-accurate.

        Matches the paper's accounting: 16-bit codewords (2 B/symbol)
        plus 8-bit lengths (1 B/symbol) — 1 kB + 512 B for 512 symbols.
        """
        return {
            "codeword_table": 2 * self.num_symbols,
            "length_table": self.num_symbols,
            "total": 3 * self.num_symbols,
        }

    def mean_bits_per_symbol(self, frequencies: Sequence[int]) -> float:
        """Average codeword length under the given symbol frequencies."""
        total_freq = sum(frequencies)
        if total_freq <= 0:
            raise CodebookError("frequencies must sum to a positive value")
        return self.code.expected_bits(frequencies) / total_freq

    # ------------------------------------------------------------------
    # Serialization (lengths only: canonical codes rebuild the codewords)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize as JSON (offset + canonical length table)."""
        return json.dumps({"offset": self.offset, "lengths": self.code.lengths})

    @classmethod
    def from_payload(cls, data) -> "Codebook":
        """Rebuild a codebook from :meth:`to_json`'s decoded object.

        This is the wire entry (the HELLO), so everything that sizes
        the work is bounded before any of it is done: the alphabet at
        :data:`~repro.config.HUFFMAN_SYMBOLS` before a length is read,
        the longest codeword at the 16-bit cap, and the Kraft sum,
        which :class:`~repro.coding.huffman.HuffmanCode` checks before
        it builds a table.
        """
        try:
            offset = int(data["offset"])
            raw = data["lengths"]
            if len(raw) > HUFFMAN_SYMBOLS:
                raise CodebookError(
                    f"alphabet of {len(raw)} symbols exceeds the "
                    f"{HUFFMAN_SYMBOLS}-symbol cap"
                )
            lengths = [int(x) for x in raw]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CodebookError(f"malformed codebook payload: {exc}") from exc
        # the code tables are sized by the longest codeword
        if max(lengths, default=0) > HUFFMAN_MAX_CODE_BITS:
            raise CodebookError(
                f"codeword length {max(lengths)} exceeds the "
                f"{HUFFMAN_MAX_CODE_BITS}-bit cap"
            )
        return cls(code=HuffmanCode(lengths), offset=offset)


def laplacian_frequencies(
    num_symbols: int = DIFF_MAX - DIFF_MIN + 1,
    scale: float = 12.0,
    total: int = 1_000_000,
) -> list[int]:
    """Synthetic Laplacian frequency profile for difference signals.

    Inter-packet measurement differences are well modeled as zero-mean
    Laplacian; this profile seeds a default codebook when no training
    corpus is available (e.g. cold start on a new device).
    """
    if num_symbols < 2:
        raise CodebookError(f"num_symbols must be >= 2, got {num_symbols}")
    if scale <= 0:
        raise CodebookError(f"scale must be positive, got {scale}")
    offset = -(num_symbols // 2)
    values = np.arange(offset, offset + num_symbols)
    weights = np.exp(-np.abs(values) / scale)
    weights /= weights.sum()
    frequencies = np.maximum(1, np.round(weights * total).astype(int))
    return [int(f) for f in frequencies]


#: default tables kept per process: one per distinct
#: ``(offset, num_symbols, max_length, laplace_floor)``
DEFAULT_CODEBOOK_CACHE_SIZE = 8


def train_codebook(
    samples: Iterable[int] | None = None,
    offset: int = DIFF_MIN,
    num_symbols: int = DIFF_MAX - DIFF_MIN + 1,
    max_length: int = HUFFMAN_MAX_CODE_BITS,
    laplace_floor: int = 1,
) -> Codebook:
    """Train a complete, length-limited codebook over difference samples.

    Parameters
    ----------
    samples:
        Iterable of difference values in ``[offset, offset+num_symbols)``.
        ``None`` trains on the synthetic Laplacian profile instead; that
        table depends on the other arguments alone, so it is built once
        per process and every caller shares the one (frozen) object.
    offset:
        Value encoded by symbol 0 (``-256`` in the paper).
    num_symbols:
        Alphabet size (512 in the paper).
    max_length:
        Codeword-length cap in bits (16 in the paper).
    laplace_floor:
        Added to every symbol count so all in-range values are encodable.
    """
    if laplace_floor < 0:
        raise CodebookError(f"laplace_floor must be >= 0, got {laplace_floor}")
    if samples is None:
        return _default_codebook(offset, num_symbols, max_length, laplace_floor)
    values = np.asarray(
        samples if isinstance(samples, np.ndarray) else list(samples)
    ).ravel()
    indices = values.astype(np.int64) - offset
    outside = (indices < 0) | (indices >= num_symbols)
    if outside.any():
        raise CodebookError(
            f"training value {values[np.argmax(outside)]} outside "
            f"[{offset}, {offset + num_symbols - 1}]"
        )
    counts = np.bincount(indices, minlength=num_symbols)
    frequencies = [laplace_floor + count for count in counts.tolist()]
    return _codebook_from(frequencies, offset, max_length)


@functools.lru_cache(maxsize=DEFAULT_CODEBOOK_CACHE_SIZE)
def _default_codebook(
    offset: int, num_symbols: int, max_length: int, laplace_floor: int
) -> Codebook:
    """The Laplacian-profile codebook, memoized on its arguments."""
    base = laplacian_frequencies(num_symbols=num_symbols)
    frequencies = [laplace_floor + b for b in base]
    return _codebook_from(frequencies, offset, max_length)


def _codebook_from(
    frequencies: list[int], offset: int, max_length: int
) -> Codebook:
    if all(f == 0 for f in frequencies):
        raise CodebookError(
            "no symbol has nonzero frequency; use laplace_floor >= 1"
        )
    lengths = package_merge_lengths(frequencies, max_length)
    return Codebook(code=HuffmanCode(lengths), offset=offset)


def empirical_entropy_bits(samples: Sequence[int]) -> float:
    """Empirical zeroth-order entropy of a symbol sequence, bits/symbol."""
    if len(samples) == 0:
        raise CodebookError("samples must be non-empty")
    values, counts = np.unique(np.asarray(samples), return_counts=True)
    del values
    probabilities = counts / counts.sum()
    return float(-np.sum(probabilities * np.log2(probabilities)))
