"""CS reconstruction solvers.

The paper cites four families of recovery algorithms (interior-point,
gradient projection, iterative thresholding, greedy pursuit) and adopts
FISTA.  All of them are implemented here as baselines around a common
interface, so the solver-comparison benchmark can reproduce the paper's
motivation quantitatively.  Every solver takes the system matrix
``A = Phi Psi`` as a dense ``(m, n)`` ndarray, the form
:func:`~repro.core.decoder.build_resources` builds it in:

- :func:`~repro.solvers.fista.fista` — the paper's solver (Beck &
  Teboulle 2009), O(1/k^2);
- :func:`~repro.solvers.ista.ista` — plain iterative shrinkage, O(1/k);
- :func:`~repro.solvers.twist.twist` — two-step IST (Bioucas-Dias &
  Figueiredo 2007);
- :func:`~repro.solvers.omp.omp` — orthogonal matching pursuit (Tropp
  2004);
- :func:`~repro.solvers.gpsr.gpsr` — gradient projection for sparse
  reconstruction (Figueiredo et al. 2007);
- :func:`~repro.solvers.bp.basis_pursuit` — the LP/interior-point
  formulation (Chen et al. 1999).

:mod:`repro.solvers.batched` scales the adopted FISTA to many windows
at once: :class:`~repro.solvers.batched.BatchedFista` stacks measurement
vectors into an ``(m, B)`` matrix and iterates all columns with one GEMM
pair per step, per-column convergence masking and warm starts.
"""

from .base import SolverResult
from .prox import soft_threshold, soft_threshold_branchy, soft_threshold_if_converted
from .lipschitz import lipschitz_constant, power_iteration_norm
from .ista import ista
from .fista import fista, lambda_from_fraction
from .batched import (
    DEFAULT_POLISH_CORRIDOR,
    BatchedFista,
    BatchedSolverResult,
    BatchWorkspace,
    HybridSolveResult,
    admm_rho,
    batched_admm,
    batched_fista,
    batched_lambda_from_fraction,
    structured_batched_fista,
)
from .sparse_apply import SparsePhiApply, StructuredOperator
from .twist import twist
from .omp import omp
from .gpsr import gpsr
from .bp import basis_pursuit

__all__ = [
    "DEFAULT_POLISH_CORRIDOR",
    "BatchedFista",
    "BatchedSolverResult",
    "BatchWorkspace",
    "HybridSolveResult",
    "SparsePhiApply",
    "StructuredOperator",
    "admm_rho",
    "batched_admm",
    "batched_fista",
    "batched_lambda_from_fraction",
    "structured_batched_fista",
    "SolverResult",
    "soft_threshold",
    "soft_threshold_branchy",
    "soft_threshold_if_converted",
    "power_iteration_norm",
    "lipschitz_constant",
    "ista",
    "fista",
    "lambda_from_fraction",
    "twist",
    "omp",
    "gpsr",
    "basis_pursuit",
]
