"""Shared solver plumbing: the system matrix, results, stopping rules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SolverError


def as_matrix(a: np.ndarray) -> np.ndarray:
    """The system matrix ``A`` as float64, the serial solvers' arithmetic."""
    array = np.asarray(a, dtype=np.float64)
    if array.ndim != 2:
        raise SolverError(f"system operator must be 2-D, got shape {array.shape}")
    return array


@dataclass
class SolverResult:
    """Outcome of a reconstruction solve.

    Attributes
    ----------
    coefficients:
        The recovered sparse coefficient vector ``alpha``.
    iterations:
        Iterations actually executed.
    converged:
        Whether the stopping tolerance was met within the budget.
    stop_reason:
        ``"tolerance"``, ``"max_iterations"`` or solver-specific reasons
        (e.g. ``"residual"`` for greedy methods).
    objective_history:
        Objective value per iteration, when the solver tracks it.
    residual_norm:
        Final ``||A alpha - y||_2``.
    """

    coefficients: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str
    residual_norm: float
    objective_history: list[float] = field(default_factory=list)

    @property
    def objective(self) -> float:
        """Final objective value (``nan`` if no history was tracked)."""
        return self.objective_history[-1] if self.objective_history else float("nan")


def check_positive_finite(name: str, value: float | np.ndarray) -> None:
    """Refuse a value (or any entry of an array) outside ``(0, inf)``.

    A ``<= 0`` test is not enough: NaN passes it and then never meets a
    stop rule, and an infinite Lipschitz constant makes the step
    ``1 / L`` zero, so every column "converges" on its warm start.
    """
    values = np.asarray(value, dtype=np.float64)
    if not np.all((values > 0) & (values < np.inf)):
        shown = value if values.ndim == 0 else values.min()
        raise SolverError(f"{name} must be positive and finite, got {shown}")


def check_measurements(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Validate the measurement vector against the operator shape."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise SolverError(f"y must be 1-D, got shape {y.shape}")
    if y.shape[0] != a.shape[0]:
        raise SolverError(
            f"y length {y.shape[0]} does not match operator rows {a.shape[0]}"
        )
    return y


def relative_change(new: np.ndarray, old: np.ndarray) -> float:
    """``||new - old|| / max(||old||, 1)`` — the standard stopping metric."""
    denominator = max(float(np.linalg.norm(old)), 1.0)
    return float(np.linalg.norm(new - old)) / denominator
