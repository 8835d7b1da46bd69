"""MSB-first bit-level I/O.

The encoder firmware writes variable-length Huffman codewords into a byte
buffer most-significant-bit first, which is the natural layout on a
big-endian bit order wire format and matches how the reference C
implementation packs codewords.  :class:`BitWriter` and :class:`BitReader`
implement that layout exactly; a payload written by one is read back
bit-for-bit by the other.

Both move whole words: ``write_bits`` tops up the open byte and appends
the rest as bytes, and the reader holds its payload as one Python int,
so a multi-bit read is one shift and mask.  The single-bit calls remain
for the MCU-style reference walks the tests compare against.
"""

from __future__ import annotations

from ..errors import BitstreamError


class BitWriter:
    """Accumulate bits MSB-first into a growing byte buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bit_position = 0  # bits already used in the last byte (0..7)

    def __len__(self) -> int:
        """Total number of bits written so far."""
        if self._bit_position == 0:
            return 8 * len(self._bytes)
        return 8 * (len(self._bytes) - 1) + self._bit_position

    @property
    def bit_length(self) -> int:
        """Alias of ``len(self)`` for readability at call sites."""
        return len(self)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
        if self._bit_position == 0:
            self._bytes.append(0)
        if bit:
            self._bytes[-1] |= 0x80 >> self._bit_position
        self._bit_position = (self._bit_position + 1) & 7

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, most significant bit first."""
        if width < 0:
            raise BitstreamError(f"width must be >= 0, got {width}")
        if width == 0:
            return
        if value < 0 or value >= (1 << width):
            raise BitstreamError(
                f"value {value} does not fit in {width} unsigned bits"
            )
        used = self._bit_position
        if used:
            free = 8 - used
            if width <= free:
                self._bytes[-1] |= value << (free - width)
                self._bit_position = (used + width) & 7
                return
            width -= free
            self._bytes[-1] |= value >> width
            value &= (1 << width) - 1
        padding = -width & 7
        self._bytes += (value << padding).to_bytes(
            (width + padding) >> 3, "big"
        )
        self._bit_position = width & 7

    def write_unary(self, value: int) -> None:
        """Append ``value`` ones followed by a terminating zero."""
        if value < 0:
            raise BitstreamError(f"unary value must be >= 0, got {value}")
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

    def getvalue(self) -> bytes:
        """Return the buffer contents, zero-padded to a whole byte."""
        return bytes(self._bytes)


class BitReader:
    """Consume bits MSB-first from a byte buffer produced by :class:`BitWriter`."""

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        max_bits = 8 * len(data)
        if bit_length is None:
            bit_length = max_bits
        if not 0 <= bit_length <= max_bits:
            raise BitstreamError(
                f"bit_length {bit_length} outside [0, {max_bits}]"
            )
        # the first ``bit_length`` bits as one int; the padding bits of
        # the last byte are dropped here and never looked at again
        self._bits = int.from_bytes(data, "big") >> (max_bits - bit_length)
        self._bit_length = bit_length
        self._position = 0

    @property
    def position(self) -> int:
        """Number of bits consumed so far."""
        return self._position

    @property
    def remaining(self) -> int:
        """Number of bits still available."""
        return self._bit_length - self._position

    def read_bit(self) -> int:
        """Read and return the next bit."""
        if self._position >= self._bit_length:
            raise BitstreamError("read past end of bitstream")
        self._position += 1
        return (self._bits >> (self._bit_length - self._position)) & 1

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (MSB first)."""
        if width < 0:
            raise BitstreamError(f"width must be >= 0, got {width}")
        if width > self.remaining:
            self._position = self._bit_length
            raise BitstreamError("read past end of bitstream")
        self._position += width
        return (self._bits >> (self._bit_length - self._position)) & (
            (1 << width) - 1
        )

    def unread(self) -> tuple[int, int]:
        """The unread bits as one int, and how many of them there are.

        For table-driven decoders that index on several bits at once:
        they work on the returned int and report what they consumed
        through :meth:`skip`.
        """
        remaining = self.remaining
        return self._bits & ((1 << remaining) - 1), remaining

    def skip(self, width: int) -> None:
        """Consume ``width`` bits without returning them."""
        if not 0 <= width <= self.remaining:
            raise BitstreamError(
                f"cannot skip {width} bits: {self.remaining} remain"
            )
        self._position += width
