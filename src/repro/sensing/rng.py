"""Embedded-style pseudo-random number generators.

A WBSN mote cannot call :func:`numpy.random.default_rng`; its firmware
uses small integer generators.  These classes are bit-exact software
models of such generators — every draw goes through explicit 16/32-bit
integer arithmetic — so the sensing matrices built from them are exactly
reproducible on a real microcontroller.

Two Gaussian generators model the paper's rejected "approach (1)"
(on-board generation of an 8-bit-quantized normal matrix):

- :class:`FixedPointGaussian` — Box–Muller with table-driven ``sqrt(-2
  ln u)``, the structure a fixed-point firmware implementation would use;
- :class:`CltGaussian` — sum-of-12-uniforms central-limit approximation,
  the classic cheap embedded alternative.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SensingError

_MASK16 = 0xFFFF
_MASK32 = 0xFFFFFFFF


class Lcg16:
    """16-bit linear congruential generator (``x <- 25173 x + 13849``).

    This is the classic "ZX Spectrum" LCG, a realistic choice for a
    16-bit MSP430: one hardware multiply and one add per draw.
    """

    MULTIPLIER = 25173
    INCREMENT = 13849

    def __init__(self, seed: int = 1) -> None:
        self._state = int(seed) & _MASK16

    @property
    def state(self) -> int:
        """Current 16-bit state."""
        return self._state

    def next_u16(self) -> int:
        """Next raw 16-bit output."""
        self._state = (self.MULTIPLIER * self._state + self.INCREMENT) & _MASK16
        return self._state

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` by rejection (unbiased)."""
        if not 0 < bound <= 1 << 16:
            raise SensingError(f"bound must be in (0, 65536], got {bound}")
        limit = (1 << 16) - ((1 << 16) % bound)
        while True:
            value = self.next_u16()
            if value < limit:
                return value % bound


class XorShift32:
    """Marsaglia's 32-bit xorshift generator (shifts 13, 17, 5).

    Three shifts and three XORs per draw; the cheapest high-quality
    generator realizable on a 16-bit MCU using register pairs.
    """

    def __init__(self, seed: int = 2463534242) -> None:
        state = int(seed) & _MASK32
        if state == 0:
            state = 2463534242  # xorshift must not start at zero
        self._state = state

    @property
    def state(self) -> int:
        """Current 32-bit state."""
        return self._state

    def next_u32(self) -> int:
        """Next raw 32-bit output."""
        x = self._state
        x ^= (x << 13) & _MASK32
        x ^= x >> 17
        x ^= (x << 5) & _MASK32
        self._state = x
        return x

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` by rejection (unbiased)."""
        if not 0 < bound <= 1 << 32:
            raise SensingError(f"bound must be in (0, 2^32], got {bound}")
        limit = (1 << 32) - ((1 << 32) % bound)
        while True:
            value = self.next_u32()
            if value < limit:
                return value % bound


class GaloisLfsr16:
    """16-bit Galois LFSR with maximal-length taps ``0xB400``.

    Period ``2^16 - 1``; one shift plus a conditional XOR per draw, the
    absolute minimum hardware-friendly generator.
    """

    TAPS = 0xB400

    def __init__(self, seed: int = 0xACE1) -> None:
        state = int(seed) & _MASK16
        if state == 0:
            state = 0xACE1  # all-zero state is absorbing
        self._state = state

    @property
    def state(self) -> int:
        """Current 16-bit state."""
        return self._state

    def next_bit(self) -> int:
        """Next output bit."""
        lsb = self._state & 1
        self._state >>= 1
        if lsb:
            self._state ^= self.TAPS
        return lsb

    def next_u16(self) -> int:
        """Next 16 bits, LSB of the register first."""
        value = 0
        for position in range(16):
            value |= self.next_bit() << position
        return value

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` by rejection (unbiased)."""
        if not 0 < bound <= 1 << 16:
            raise SensingError(f"bound must be in (0, 65536], got {bound}")
        limit = (1 << 16) - ((1 << 16) % bound)
        while True:
            value = self.next_u16()
            if value < limit:
                return value % bound


class FixedPointGaussian:
    """Box–Muller Gaussian draws through a fixed-point lookup structure.

    The radius term ``sqrt(-2 ln u)`` is taken from a 256-entry table
    (as firmware would store in flash) and the angle term uses a
    quarter-wave cosine table of 256 entries; both are quantized to
    Q8.8.  Output is an 8-bit-quantized standard normal in units of
    ``scale`` (i.e. ``value = q * scale`` with ``q`` in ``[-127, 127]``).

    The point is not statistical perfection — it is a faithful cost and
    quantization model of the paper's rejected approach (1).
    """

    TABLE_SIZE = 256

    def __init__(self, seed: int = 1, scale: float = 1.0 / 32.0) -> None:
        if scale <= 0:
            raise SensingError(f"scale must be positive, got {scale}")
        self._uniform = XorShift32(seed)
        self.scale = float(scale)
        # Q8.8 radius table over u in (0, 1]: sqrt(-2 ln u)
        u = (np.arange(self.TABLE_SIZE) + 0.5) / self.TABLE_SIZE
        self._radius_q88 = np.round(np.sqrt(-2.0 * np.log(u)) * 256.0).astype(
            np.int64
        )
        # Q8.8 quarter-wave cosine table
        theta = np.arange(self.TABLE_SIZE) * (math.pi / 2.0) / self.TABLE_SIZE
        self._cos_q88 = np.round(np.cos(theta) * 256.0).astype(np.int64)
        #: integer table operations performed per draw (for cost models)
        self.ops_per_draw = 2 + 2 + 1 + 1  # 2 PRNG draws, 2 lookups, mul, shift

    def _cos_lookup(self, index: int) -> int:
        """Full-wave Q8.8 cosine from the quarter-wave table."""
        quadrant, offset = divmod(index % (4 * self.TABLE_SIZE), self.TABLE_SIZE)
        if quadrant == 0:
            return int(self._cos_q88[offset])
        if quadrant == 1:
            return -int(self._cos_q88[self.TABLE_SIZE - 1 - offset])
        if quadrant == 2:
            return -int(self._cos_q88[offset])
        return int(self._cos_q88[self.TABLE_SIZE - 1 - offset])

    def next_q7(self) -> int:
        """One quantized draw in ``[-127, 127]`` (saturating)."""
        u_index = self._uniform.next_below(self.TABLE_SIZE)
        angle_index = self._uniform.next_below(4 * self.TABLE_SIZE)
        radius = int(self._radius_q88[u_index])  # Q8.8
        cosine = self._cos_lookup(angle_index)  # Q8.8
        # Q8.8 * Q8.8 -> Q16.16; value = radius*cos in Q16.16
        product = radius * cosine
        # convert to units of `scale`: q = round(value / scale) with
        # value = product / 2^16
        q = int(round(product / 65536.0 / self.scale))
        return max(-127, min(127, q))

    def draw_matrix(self, rows: int, cols: int) -> np.ndarray:
        """A ``rows x cols`` int8 matrix of quantized draws."""
        if rows < 1 or cols < 1:
            raise SensingError("matrix dimensions must be positive")
        values = np.empty((rows, cols), dtype=np.int8)
        for i in range(rows):
            for j in range(cols):
                values[i, j] = self.next_q7()
        return values


class CltGaussian:
    """Central-limit Gaussian: ``sum of 12 uniform(0,1) - 6``.

    Twelve 16-bit PRNG draws and adds per sample — the standard trick on
    multiplier-less microcontrollers.  Variance is exactly 1.
    """

    def __init__(self, seed: int = 1) -> None:
        self._uniform = Lcg16(seed)
        #: integer operations per draw (for cost models)
        self.ops_per_draw = 12 + 12

    def next_value(self) -> float:
        """One approximately standard-normal draw in ``[-6, 6]``."""
        total = 0
        for _ in range(12):
            total += self._uniform.next_u16()
        return total / 65536.0 - 6.0

    def next_q7(self, scale: float = 1.0 / 32.0) -> int:
        """One 8-bit-quantized draw in units of ``scale``."""
        if scale <= 0:
            raise SensingError(f"scale must be positive, got {scale}")
        q = int(round(self.next_value() / scale))
        return max(-127, min(127, q))
