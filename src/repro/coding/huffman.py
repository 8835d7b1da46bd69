"""Huffman coding with canonical codes.

The encoder firmware stores only codeword *lengths* plus a canonical
ordering (1 kB codebook + 512 B of lengths in the paper), not an explicit
tree, so this module is built around canonical Huffman codes:

- :func:`huffman_code_lengths` computes optimal (unbounded) codeword
  lengths from symbol frequencies with the classic two-queue algorithm;
- :class:`HuffmanCode` turns a length table into canonical codewords and
  provides encoding plus a table-driven decoder (one lookup per symbol;
  the MCU-style first-code walk stays as the documented reference).

Length-*limited* codes (the paper caps codewords at 16 bits) are produced
by :mod:`repro.coding.length_limited` and consumed by the same
:class:`HuffmanCode` machinery.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

from ..errors import BitstreamError, CodebookError, DecodingError
from .bitstream import BitReader, BitWriter

#: index width cap of the decode lookup table: 4096 entries per code,
#: however long its codewords.  A trained codebook spends > 99 % of its
#: symbols on codewords this short; the rest take the first-code walk.
_TABLE_BITS = 12

#: a table entry packs ``symbol << _LENGTH_BITS | length``; 0 = no
#: codeword of at most ``_TABLE_BITS`` bits starts with this index
_LENGTH_BITS = 16
_LENGTH_MASK = (1 << _LENGTH_BITS) - 1


def huffman_code_lengths(frequencies: Sequence[int]) -> list[int]:
    """Optimal prefix-code lengths for the given symbol frequencies.

    Zero-frequency symbols get length 0 (no codeword).  If only one
    symbol has nonzero frequency it is assigned a 1-bit codeword.
    """
    if not frequencies:
        raise CodebookError("frequencies must be non-empty")
    if any(f < 0 for f in frequencies):
        raise CodebookError("frequencies must be non-negative")

    active = [(freq, index) for index, freq in enumerate(frequencies) if freq > 0]
    lengths = [0] * len(frequencies)
    if not active:
        raise CodebookError("at least one symbol must have nonzero frequency")
    if len(active) == 1:
        lengths[active[0][1]] = 1
        return lengths

    # Classic heap-based Huffman: each heap entry carries the subtree's
    # total frequency, a tie-breaker, and the list of leaf symbols so we
    # can increment depths on merge.
    heap: list[tuple[int, int, list[int]]] = []
    for tie, (freq, index) in enumerate(active):
        heap.append((freq, tie, [index]))
    heapq.heapify(heap)
    tie = len(active)
    while len(heap) > 1:
        freq_a, _, leaves_a = heapq.heappop(heap)
        freq_b, _, leaves_b = heapq.heappop(heap)
        for leaf in leaves_a:
            lengths[leaf] += 1
        for leaf in leaves_b:
            lengths[leaf] += 1
        heapq.heappush(heap, (freq_a + freq_b, tie, leaves_a + leaves_b))
        tie += 1
    return lengths


def kraft_sum(lengths: Iterable[int]) -> float:
    """Kraft–McMillan sum ``sum(2^-l)`` over nonzero lengths."""
    return sum(2.0 ** -length for length in lengths if length > 0)


def canonical_codewords(lengths: Sequence[int]) -> list[int | None]:
    """Assign canonical codewords from a valid length table.

    Symbols are ordered by (length, symbol index); codewords are the
    standard canonical sequence.  Returns ``None`` for zero-length
    (absent) symbols.
    """
    used = [(length, symbol) for symbol, length in enumerate(lengths) if length > 0]
    if not used:
        raise CodebookError("length table has no coded symbols")
    total = kraft_sum(lengths)
    if total > 1.0 + 1e-12:
        raise CodebookError(f"length table violates Kraft inequality (sum={total})")

    used.sort()
    codewords: list[int | None] = [None] * len(lengths)
    code = 0
    previous_length = used[0][0]
    for length, symbol in used:
        code <<= length - previous_length
        previous_length = length
        if code >= (1 << length):
            raise CodebookError("canonical code overflow: invalid length table")
        codewords[symbol] = code
        code += 1
    return codewords


class HuffmanCode:
    """A canonical Huffman code over symbols ``0 .. num_symbols-1``.

    Two decoders over the same canonical tables.  :meth:`decode_symbol`
    is the structure a microcontroller would keep in flash: per length
    ``l`` the first canonical codeword and the index of its first
    symbol, plus the symbol permutation sorted by (length, symbol),
    walked one bit at a time.  :meth:`decode` — what the coordinator
    runs — indexes the next ``min(max_length, 12)`` bits into a flat
    ``(symbol, length)`` table built here once, and falls back to that
    same first-code arithmetic only for the rare longer codeword.
    """

    def __init__(self, lengths: Sequence[int]) -> None:
        self._lengths = [int(length) for length in lengths]
        if any(length < 0 for length in self._lengths):
            raise CodebookError("codeword lengths must be non-negative")
        codewords = canonical_codewords(self._lengths)
        self._max_length = max(self._lengths)
        if self._max_length > _LENGTH_MASK:
            raise CodebookError(
                f"codeword length {self._max_length} exceeds {_LENGTH_MASK}"
            )
        #: symbol -> (codeword, length), coded symbols only
        self._codes = {
            symbol: (code, self._lengths[symbol])
            for symbol, code in enumerate(codewords)
            if code is not None
        }

        # Canonical decoding tables.
        ordered = sorted(
            (length, symbol) for symbol, (_, length) in self._codes.items()
        )
        self._symbols_by_rank = [symbol for _, symbol in ordered]
        self._counts = [0] * (self._max_length + 1)
        for length, _ in ordered:
            self._counts[length] += 1
        self._first_code = [0] * (self._max_length + 1)
        self._first_rank = [0] * (self._max_length + 1)
        rank = 0
        code = 0
        for length in range(1, self._max_length + 1):
            code <<= 1
            self._first_code[length] = code
            self._first_rank[length] = rank
            rank += self._counts[length]
            code += self._counts[length]

        # Lookup table: every index whose leading bits are a codeword
        # of at most _TABLE_BITS bits maps to that codeword's entry.
        self._table_bits = min(self._max_length, _TABLE_BITS)
        self._table = [0] * (1 << self._table_bits)
        for symbol, (code, length) in self._codes.items():
            spare = self._table_bits - length
            if spare >= 0:
                self._table[code << spare : (code + 1) << spare] = [
                    symbol << _LENGTH_BITS | length
                ] * (1 << spare)

    # ------------------------------------------------------------------
    @property
    def lengths(self) -> list[int]:
        """Codeword length per symbol (0 = symbol has no codeword)."""
        return list(self._lengths)

    @property
    def max_length(self) -> int:
        """Longest codeword length in bits."""
        return self._max_length

    @property
    def num_symbols(self) -> int:
        """Size of the symbol alphabet (including absent symbols)."""
        return len(self._lengths)

    def codeword(self, symbol: int) -> tuple[int, int]:
        """Return ``(code, length)`` for a symbol, or raise if absent."""
        entry = self._codes.get(symbol)
        if entry is None:
            if not 0 <= symbol < len(self._lengths):
                raise CodebookError(f"symbol {symbol} outside alphabet")
            raise CodebookError(f"symbol {symbol} has no codeword")
        return entry

    # ------------------------------------------------------------------
    def encode_symbol(self, symbol: int, writer: BitWriter) -> None:
        """Append one symbol's codeword to ``writer``."""
        code, length = self.codeword(symbol)
        writer.write_bits(code, length)

    def encode(
        self, symbols: Iterable[int], writer: BitWriter | None = None
    ) -> BitWriter:
        """Encode a symbol sequence; returns the (possibly new) writer.

        Codewords are concatenated into one int and handed to the
        writer whole — the bytes are those of one :meth:`encode_symbol`
        call per symbol.
        """
        if writer is None:
            writer = BitWriter()
        codes = self._codes
        run = 0
        run_bits = 0
        for symbol in symbols:  # repro-lint: hot
            try:
                code, length = codes[symbol]
            except KeyError:
                code, length = self.codeword(symbol)  # raises: says why
            run = (run << length) | code
            run_bits += length
        writer.write_bits(run, run_bits)
        return writer

    def decode_symbol(self, reader: BitReader) -> int:
        """Read one canonical codeword from ``reader``, bit by bit.

        The reference decoder: :meth:`decode` must agree with a loop
        over this on every stream (symbols, reader position, error).
        """
        code = 0
        for length in range(1, self._max_length + 1):
            code = (code << 1) | reader.read_bit()
            count = self._counts[length]
            if count and code - self._first_code[length] < count:
                rank = self._first_rank[length] + (code - self._first_code[length])
                return self._symbols_by_rank[rank]
        raise DecodingError("invalid codeword in bitstream")

    def _long_entry(self, peek: int) -> int:
        """Table entry of a codeword longer than the table's index.

        ``peek`` is the next ``max_length`` bits.  No shorter codeword
        is a prefix of it (the table said so), which is the invariant
        the first-code walk carries from length to length — so the walk
        simply resumes past the index width.  0 when nothing matches.
        """
        for length in range(self._table_bits + 1, self._max_length + 1):
            code = peek >> (self._max_length - length)
            offset = code - self._first_code[length]
            if offset < self._counts[length]:
                rank = self._first_rank[length] + offset
                return self._symbols_by_rank[rank] << _LENGTH_BITS | length
        return 0

    def decode(self, reader: BitReader, count: int) -> list[int]:
        """Decode exactly ``count`` symbols.

        Raises what the :meth:`decode_symbol` walk raises, with the
        reader left where the walk leaves it: ``BitstreamError`` (all
        bits consumed) when a codeword runs off the end,
        ``DecodingError`` (``max_length`` bits consumed) on a prefix no
        codeword owns.
        """
        if count < 0:
            raise DecodingError(f"count must be >= 0, got {count}")
        bits, available = reader.unread()
        longest = self._max_length
        table = self._table
        index_mask = len(table) - 1
        # the table index is the top ``_table_bits`` of a ``longest``-bit
        # peek; zero padding keeps the peek in range at the stream's end
        floor = longest - self._table_bits
        bits <<= longest
        shift = available + floor
        symbols: list[int] = []
        append = symbols.append
        for _ in range(count):  # repro-lint: hot
            entry = table[(bits >> shift) & index_mask]
            if not entry:
                entry = self._long_entry(
                    (bits >> (shift - floor)) & ((1 << longest) - 1)
                )
            length = entry & _LENGTH_MASK
            shift -= length
            if not length or shift < floor:
                unread = shift + length - floor
                if unread < longest:
                    reader.skip(available)
                    raise BitstreamError("read past end of bitstream")
                reader.skip(available - unread + longest)
                raise DecodingError("invalid codeword in bitstream")
            append(entry >> _LENGTH_BITS)
        reader.skip(available + floor - shift)
        return symbols

    # ------------------------------------------------------------------
    def expected_bits(self, frequencies: Sequence[int]) -> float:
        """Total bits to code a source with the given frequencies."""
        if len(frequencies) != len(self._lengths):
            raise CodebookError("frequency table size mismatch")
        total = 0.0
        for symbol, freq in enumerate(frequencies):
            if freq > 0:
                if self._lengths[symbol] == 0:
                    raise CodebookError(
                        f"symbol {symbol} occurs but has no codeword"
                    )
                total += freq * self._lengths[symbol]
        return total
