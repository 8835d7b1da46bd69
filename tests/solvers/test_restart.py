"""The float64 FISTA legs the hybrid fast leg must never disturb.

- **the reference is frozen** — ``batched_fista`` is the textbook
  scalar-``t_k`` iteration: the float64 paper reference (iterations
  *and* coefficients) is what it was before PR 12 gave the fast leg a
  restart and after PR 22 replaced that leg with ADMM
  (``tests/solvers/test_admm.py``);
- **the polish leg is that reference** — a column the float32 fast leg
  cannot represent is re-solved by it, warm-started from the fast
  leg's coefficients.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import EcgMonitorSystem
from repro.core.batch import encode_record_windows
from repro.solvers import (
    admm_rho,
    batched_admm,
    batched_fista,
    batched_lambda_from_fraction,
    structured_batched_fista,
)

WINDOWS = 8

#: per-column iteration counts of the float64 solve of the
#: first 8 paper-point windows of each record, recorded on the commit
#: before the momentum clock became per-column (OpenBLAS, 1 or 2
#: threads — the counts did not depend on it)
FROZEN_ITERATIONS = {
    "100": [679, 887, 1351, 1111, 683, 994, 1369, 766],
    "119": [752, 1245, 998, 1021, 1272, 942, 922, 1372],
}


@pytest.fixture(scope="module")
def paper_blocks(paper_config, database):
    """Real encoded windows of records 100/119 at the paper point."""
    blocks = {}
    for name in ("100", "119"):
        record = database.load(name)
        system = EcgMonitorSystem(paper_config, precision="hybrid")
        system.calibrate(record)
        windows, packets = encode_record_windows(
            system, record, max_packets=WINDOWS
        )
        decoder = system.decoder
        structure = decoder.resources.solver.structure
        block = decoder.payload.measurement_block(packets, np.float64)
        blocks[name] = {
            "structure": structure,
            "block": block,
            "lams": batched_lambda_from_fraction(
                structure.dense64, block, paper_config.lam
            ),
            "windows": windows - decoder.dc_offset,
        }
    return blocks


def _scalar_clock_fista(operator, ys, lams, lipschitz, cap, tolerance):
    """The kernel as it was with one scalar ``t_k`` for the whole
    batch — same operation order, same freeze-and-compact schedule —
    kept here as the textbook ``batched_fista`` must reproduce, in
    the dtype of ``ys`` (every scalar cast to it, the stop rule's
    norms read in float64)."""
    dtype = ys.dtype.type
    n, batch = operator.shape[1], ys.shape[1]
    operator_t = np.ascontiguousarray(operator.T)
    two_step = dtype(2.0) * dtype(1.0 / lipschitz)
    alpha = np.zeros((n, batch), dtype=dtype)
    iterations = np.zeros(batch, dtype=np.int64)
    y, thr = ys.copy(), (lams / lipschitz).astype(dtype)
    prev, mom = alpha.copy(), alpha.copy()
    order, live = np.arange(batch), np.ones(batch, dtype=bool)
    prev_norms = np.zeros(batch)
    t_k = 1.0
    for iteration in range(1, cap + 1):
        u = operator_t @ (operator @ mom - y)
        u *= two_step
        np.subtract(mom, u, out=u)
        new = np.sign(u)
        np.abs(u, out=u)
        u -= thr
        np.maximum(u, 0, out=u)
        new *= u
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        diff = new - prev
        mom = diff * dtype((t_k - 1.0) / t_next)
        mom += new
        t_k = t_next
        change = np.sqrt(np.einsum("ij,ij->j", diff, diff)).astype(np.float64)
        finished = live & (change / np.maximum(prev_norms, 1.0) < tolerance)
        prev = new
        prev_norms = np.sqrt(np.einsum("ij,ij->j", prev, prev)).astype(
            np.float64
        )
        if finished.any():
            alpha[:, order[finished]] = prev[:, finished]
            iterations[order[finished]] = iteration
            live[finished] = False
            frozen = live.size - int(np.count_nonzero(live))
            if frozen == live.size:
                break
            if frozen >= (live.size + 7) // 8:
                y = np.ascontiguousarray(y[:, live])
                prev = np.ascontiguousarray(prev[:, live])
                mom = np.ascontiguousarray(mom[:, live])
                thr, prev_norms = thr[live], prev_norms[live]
                order = order[live]
                live = np.ones(order.size, dtype=bool)
    alpha[:, order[live]] = prev[:, live]
    iterations[order[live]] = iteration
    return alpha, iterations


class TestReferenceFrozen:
    """``batched_fista`` is the iteration it always was."""

    @pytest.mark.parametrize("name", ["100", "119"])
    def test_float64_reference_bit_frozen(
        self, paper_blocks, paper_config, name
    ):
        case = paper_blocks[name]
        structure = case["structure"]
        plain = batched_fista(
            structure.dense64,
            case["block"],
            case["lams"],
            max_iterations=paper_config.max_iterations,
            tolerance=paper_config.tolerance,
            lipschitz=structure.lipschitz,
            operator_t=structure.dense64_t,
        )
        assert plain.iterations.tolist() == FROZEN_ITERATIONS[name]

        textbook, iterations = _scalar_clock_fista(
            structure.dense64,
            case["block"],
            case["lams"],
            structure.lipschitz,
            paper_config.max_iterations,
            paper_config.tolerance,
        )
        np.testing.assert_array_equal(plain.iterations, iterations)
        np.testing.assert_array_equal(plain.coefficients, textbook)

    def test_float32_backend_is_the_textbook_iteration_in_float32(
        self, paper_blocks, paper_config
    ):
        """The ``float32`` backend's loop stays float32: one float64
        scalar or buffer in it changes bits the textbook pins."""
        case = paper_blocks["100"]
        structure = case["structure"]
        dense32 = structure.dense64.astype(np.float32)
        block32 = case["block"].astype(np.float32)
        plain = batched_fista(
            dense32,
            block32,
            case["lams"],
            max_iterations=paper_config.max_iterations,
            tolerance=paper_config.tolerance,
            lipschitz=structure.lipschitz,
        )
        textbook, iterations = _scalar_clock_fista(
            dense32,
            block32,
            case["lams"],
            structure.lipschitz,
            paper_config.max_iterations,
            paper_config.tolerance,
        )
        assert plain.coefficients.dtype == np.float32
        np.testing.assert_array_equal(plain.iterations, iterations)
        np.testing.assert_array_equal(plain.coefficients, textbook)


class TestPolishLegKeepsTheReference:
    def test_overflow_column_polishes_on_the_reference(
        self, paper_blocks, paper_config
    ):
        """A float32-overflowing column leaves the corridor and is
        re-solved by float64 FISTA: the polished column is exactly the
        reference kernel's answer from the fast leg's (reset) warm
        start."""
        case = paper_blocks["100"]
        structure = case["structure"]
        block = case["block"][:, :4].copy()
        hard = 1
        block[:, hard] *= 1e39  # finite in float64, inf as float32
        kwargs = dict(
            max_iterations=paper_config.max_iterations,
            tolerance=paper_config.tolerance,
        )
        result = structured_batched_fista(
            structure, block, paper_config.lam, **kwargs
        )
        assert result.polished.tolist() == [False, True, False, False]

        lams = batched_lambda_from_fraction(
            structure.dense64, block, paper_config.lam
        )
        with np.errstate(over="ignore", invalid="ignore"):
            fast = batched_admm(
                structure, block, lams, admm_rho(paper_config.lam), **kwargs
            )
        x0 = fast.coefficients[:, [hard]].astype(np.float64)
        x0[~np.isfinite(x0)] = 0.0
        polish = batched_fista(
            structure.dense64,
            block[:, [hard]],
            lams[[hard]],
            lipschitz=structure.lipschitz,
            x0=x0,
            **kwargs,
        )
        np.testing.assert_array_equal(
            result.signals[:, [hard]], structure.psi64 @ polish.coefficients
        )
        assert result.iterations[hard] == (
            fast.iterations[hard] + polish.iterations[0]
        )
