"""NEON vectorization-strategy models (paper Figures 3, 4, 5).

The paper's low-level contribution is a set of loop transformations for
the Cortex-A8's NEON unit.  Each is modeled twice here:

- a **cost model** counting vector/scalar instructions, used by the
  Cortex-A8 cycle model and the SIMD ablation benchmark;
- a **functional simulation** (numpy emulating 4-lane vectors) proving
  the transformed loops compute exactly the same values.

Figure 3 — three ways to handle the ``A < L`` leftover elements of a
loop of ``L*Iter + A`` iterations: array padding (fastest), lane-by-lane
loads, scalar epilogue (slowest).

Figure 4 — if-conversion of the soft-threshold sign logic: comparison
results used as multiplicative masks instead of branches.

Figure 5 — vectorizing the outer vs the inner loop of the two-filter
bank nest: outer-loop vectorization needs ``2*(I/L)*m`` vector MACs;
inner-loop vectorization adds ``2*I*(L-1)`` cross-lane adds; when
``I < L`` a fused X/Y vector brings the count down to ``I*m``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ..errors import PlatformModelError

#: NEON vector width in single-precision floats on the Cortex-A8.
VECTOR_WIDTH = 4


class LeftoverStrategy(enum.Enum):
    """Figure 3's three leftover-element treatments, fastest first."""

    ARRAY_PADDING = "array-padding"
    LANE_BY_LANE = "lane-by-lane"
    SCALAR_EPILOGUE = "scalar-epilogue"


@dataclass(frozen=True)
class NeonCosts:
    """Primitive instruction costs (cycles) used by the strategy models."""

    vector_op: float = 2.0  # vmlaq.f32 etc.: 4 lanes / 2 cycles
    vector_load: float = 2.0  # vld1q.f32
    vector_store: float = 2.0  # vst1q.f32
    lane_load: float = 6.0  # vld1q_lane per element (latency-serialized)
    scalar_op: float = 10.0  # VFPLite single-precision op
    scalar_mac: float = 20.0  # VFPLite MAC (paper: 18-21 cycles)
    branch: float = 8.0  # mispredict-weighted
    loop_overhead: float = 3.0  # index/compare/back-edge per loop pass


def leftover_strategy_cycles(
    total: int,
    strategy: LeftoverStrategy,
    costs: NeonCosts | None = None,
) -> float:
    """Cycles to run an elementwise ``d = a + b*c`` loop of ``total`` items.

    ``total = L*Iter + A`` with ``A = total mod L``.  All strategies run
    ``Iter`` full vector passes (load a, b, c; MAC; store); they differ
    in how the last ``A`` elements are produced.
    """
    if total < 0:
        raise PlatformModelError(f"total must be >= 0, got {total}")
    costs = costs if costs is not None else NeonCosts()
    full, leftover = divmod(total, VECTOR_WIDTH)
    per_vector = 3 * costs.vector_load + costs.vector_op + costs.vector_store
    cycles = full * (per_vector + costs.loop_overhead)
    if leftover == 0:
        return cycles
    if strategy is LeftoverStrategy.ARRAY_PADDING:
        # one more full vector pass over the padded tail
        return cycles + per_vector + costs.loop_overhead
    if strategy is LeftoverStrategy.LANE_BY_LANE:
        # A lane loads per input vector (3 inputs), one vector op,
        # A lane stores
        return (
            cycles
            + 3 * leftover * costs.lane_load
            + costs.vector_op
            + leftover * costs.lane_load
            + costs.loop_overhead
        )
    if strategy is LeftoverStrategy.SCALAR_EPILOGUE:
        return cycles + leftover * (
            costs.scalar_mac + 3 * costs.scalar_op / 3 + costs.loop_overhead
        )
    raise PlatformModelError(f"unknown strategy {strategy}")


def simulate_leftover_strategies(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> dict[LeftoverStrategy, np.ndarray]:
    """Functional 4-lane simulation of ``d = a + b*c`` for all strategies.

    All three must produce identical outputs; the test-suite asserts it.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    c = np.asarray(c, dtype=np.float32)
    if not (a.shape == b.shape == c.shape) or a.ndim != 1:
        raise PlatformModelError("a, b, c must be equal-length 1-D arrays")
    total = len(a)
    full = (total // VECTOR_WIDTH) * VECTOR_WIDTH
    results: dict[LeftoverStrategy, np.ndarray] = {}

    # array padding: compute on zero-padded copies, truncate
    pad = (-total) % VECTOR_WIDTH
    ap = np.concatenate([a, np.zeros(pad, np.float32)])
    bp = np.concatenate([b, np.zeros(pad, np.float32)])
    cp = np.concatenate([c, np.zeros(pad, np.float32)])
    padded = (
        ap.reshape(-1, VECTOR_WIDTH)
        + bp.reshape(-1, VECTOR_WIDTH) * cp.reshape(-1, VECTOR_WIDTH)
    ).reshape(-1)[:total]
    results[LeftoverStrategy.ARRAY_PADDING] = padded

    # lane-by-lane: full vectors, then one masked vector built lane-wise
    lane = np.empty(total, np.float32)
    lane[:full] = (
        a[:full].reshape(-1, VECTOR_WIDTH)
        + b[:full].reshape(-1, VECTOR_WIDTH) * c[:full].reshape(-1, VECTOR_WIDTH)
    ).reshape(-1)
    if total > full:
        va = np.zeros(VECTOR_WIDTH, np.float32)
        vb = np.zeros(VECTOR_WIDTH, np.float32)
        vc = np.zeros(VECTOR_WIDTH, np.float32)
        for i in range(total - full):
            va[i], vb[i], vc[i] = a[full + i], b[full + i], c[full + i]
        vd = va + vb * vc
        lane[full:] = vd[: total - full]
    results[LeftoverStrategy.LANE_BY_LANE] = lane

    # scalar epilogue
    scalar = np.empty(total, np.float32)
    scalar[:full] = lane[:full]
    for i in range(full, total):
        scalar[i] = np.float32(a[i] + b[i] * c[i])
    results[LeftoverStrategy.SCALAR_EPILOGUE] = scalar
    return results


# ----------------------------------------------------------------------
# Figure 4: if-conversion of the soft-threshold sign logic
# ----------------------------------------------------------------------

def if_conversion_cycles(
    n: int, vectorized: bool, costs: NeonCosts | None = None
) -> float:
    """Cycles for the Figure 4 loop over ``n`` elements.

    Branchy scalar: abs, subtract, multiply-by-compare plus a
    data-dependent two-way branch per element (mispredict-weighted).
    Vectorized: two comparison vectors, subtract/abs/max and two
    multiplies per 4 lanes, no branches.
    """
    if n < 0:
        raise PlatformModelError(f"n must be >= 0, got {n}")
    costs = costs if costs is not None else NeonCosts()
    if not vectorized:
        per_element = 4 * costs.scalar_op + costs.branch + costs.loop_overhead
        return n * per_element
    vectors = math.ceil(n / VECTOR_WIDTH)
    per_vector = (
        costs.vector_load
        + 6 * costs.vector_op  # abs, sub, max, 2 compares, sign multiply
        + costs.vector_store
        + costs.loop_overhead
    )
    return vectors * per_vector


# ----------------------------------------------------------------------
# Figure 5: inner- vs outer-loop vectorization of the filter-bank nest
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LoopNestCounts:
    """Instruction counts for one filter-bank nest variant."""

    variant: str
    vector_macs: int
    extra_adds: int
    scalar_macs: int = 0

    def cycles(self, costs: NeonCosts | None = None) -> float:
        """Price the nest with the NEON primitive costs."""
        costs = costs if costs is not None else NeonCosts()
        return (
            self.vector_macs * costs.vector_op
            + self.extra_adds * costs.vector_op
            + self.scalar_macs * costs.scalar_mac
        )


def loop_nest_instruction_counts(
    outer: int, taps: int, fused: bool = False
) -> dict[str, LoopNestCounts]:
    """Instruction counts for the Figure 5 nest (I outer, m taps, 2 filters).

    - ``outer``-loop vectorization: ``2 * (I/L) * m`` vector MACs (valid
      when I is a multiple of L);
    - ``inner``-loop vectorization: same vector MACs but ``2*I*(L-1)``
      extra cross-lane adds for the horizontal reductions;
    - ``fused``: when I < L, packing X and Y into one vector gives
      ``I * m`` MAC instructions (the paper's l1-loop trick).
    """
    if outer < 1 or taps < 1:
        raise PlatformModelError("outer and taps must be >= 1")
    results: dict[str, LoopNestCounts] = {}
    outer_blocks = math.ceil(outer / VECTOR_WIDTH)
    results["outer"] = LoopNestCounts(
        variant="outer", vector_macs=2 * outer_blocks * taps, extra_adds=0
    )
    results["inner"] = LoopNestCounts(
        variant="inner",
        vector_macs=2 * outer * math.ceil(taps / VECTOR_WIDTH),
        extra_adds=2 * outer * (VECTOR_WIDTH - 1),
    )
    if fused:
        results["fused"] = LoopNestCounts(
            variant="fused", vector_macs=outer * taps, extra_adds=0
        )
    return results
