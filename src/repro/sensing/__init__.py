"""Sensing-matrix substrate.

The paper explores three implementations of the random sensing matrix
``Phi`` on the MSP430 mote:

1. on-board 8-bit-quantized Gaussian generation (too slow to be
   real-time),
2. a stored dense Gaussian matrix (memory-infeasible, and the dense
   multiply remains the bottleneck),
3. a **sparse binary** matrix with ``d`` ones per column at ``1/sqrt(d)``
   (the adopted design; satisfies RIP-p rather than RIP-2).

All three are implemented here, along with the reference dense Gaussian /
Bernoulli constructions used on the Matlab side of Figure 2 and the
embedded-style integer PRNGs the firmware would use.
"""

from .base import SensingMatrix
from .dense import GaussianMatrix, BernoulliMatrix
from .quantized import QuantizedGaussianMatrix
from .sparse_binary import SparseBinaryMatrix
from .structured import LfsrCirculantMatrix
from .rng import (
    Lcg16,
    XorShift32,
    GaloisLfsr16,
    FixedPointGaussian,
    CltGaussian,
)
from .properties import (
    mutual_coherence,
    column_norms,
)

__all__ = [
    "SensingMatrix",
    "GaussianMatrix",
    "BernoulliMatrix",
    "QuantizedGaussianMatrix",
    "SparseBinaryMatrix",
    "LfsrCirculantMatrix",
    "Lcg16",
    "XorShift32",
    "GaloisLfsr16",
    "FixedPointGaussian",
    "CltGaussian",
    "mutual_coherence",
    "column_norms",
]
