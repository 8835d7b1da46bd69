"""Per-column adaptive restart in ``batched_fista``.

Two contracts, pinned separately:

- **the reference is frozen** — with ``restart=False`` the per-column
  momentum clock reads the textbook scalar ``t_k`` schedule, so the
  float64 paper reference (iterations *and* coefficients) is what it
  was before the clock became a vector;
- **the restarted float32 leg** (what ``precision="hybrid"`` runs)
  reaches the same lasso minimiser in a fraction of the iterations,
  column by column, whatever else shares the batch and however often
  the working set compacts mid-solve.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import EcgMonitorSystem
from repro.core.batch import encode_record_windows
from repro.metrics import prd
from repro.solvers import (
    batched_fista,
    batched_lambda_from_fraction,
    structured_batched_fista,
)

WINDOWS = 8

#: per-column iteration counts of the un-restarted float64 solve of the
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


def _solve(
    case, config, dtype, restart, columns=slice(None), lipschitz=None
):
    """One leg of the kernel on (a column subset of) a paper block.

    ``restart=True`` is the hybrid fast leg as the structured solve
    runs it — restarted *and* stepping by the structure's
    per-coefficient constants — unless ``lipschitz`` says otherwise.
    """
    structure = case["structure"]
    if lipschitz is None:
        lipschitz = (
            structure.coefficient_lipschitz
            if restart
            else structure.lipschitz
        )
    return batched_fista(
        structure.operator(dtype),
        np.ascontiguousarray(case["block"][:, columns], dtype=dtype),
        case["lams"][columns],
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
        lipschitz=lipschitz,
        operator_t=structure.operator_t(dtype),
        restart=restart,
    )


def _objective(case, coefficients, columns=slice(None)):
    """Per-column lasso objective, evaluated in float64."""
    alpha = np.asarray(coefficients, dtype=np.float64)
    resid = case["structure"].dense64 @ alpha - case["block"][:, columns]
    return np.einsum("ij,ij->j", resid, resid) + case["lams"][
        columns
    ] * np.abs(alpha).sum(axis=0)


def _scalar_clock_fista(operator, ys, lams, lipschitz, cap, tolerance):
    """The kernel as it was with one scalar ``t_k`` for the whole
    batch — same operation order, same freeze-and-compact schedule —
    kept here as the textbook the vector clock must reproduce."""
    n, batch = operator.shape[1], ys.shape[1]
    operator_t = np.ascontiguousarray(operator.T)
    two_step = 2.0 * (1.0 / lipschitz)
    alpha = np.zeros((n, batch))
    iterations = np.zeros(batch, dtype=np.int64)
    y, thr = ys.copy(), lams / lipschitz
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
        mom = diff * ((t_k - 1.0) / t_next)
        mom += new
        t_k = t_next
        change = np.sqrt(np.einsum("ij,ij->j", diff, diff))
        finished = live & (change / np.maximum(prev_norms, 1.0) < tolerance)
        prev = new
        prev_norms = np.sqrt(np.einsum("ij,ij->j", prev, prev))
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


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestReferenceFrozen:
    """``restart=False`` is the iteration it always was."""

    @pytest.mark.parametrize("name", ["100", "119"])
    def test_float64_reference_bit_frozen(
        self, paper_blocks, paper_config, name
    ):
        case = paper_blocks[name]
        structure = case["structure"]
        plain = _solve(case, paper_config, np.float64, restart=False)
        assert plain.iterations.tolist() == FROZEN_ITERATIONS[name]
        assert not plain.restarts.any()

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

        # the structured float64 lever is that same iteration
        structured = structured_batched_fista(
            structure,
            case["block"],
            paper_config.lam,
            max_iterations=paper_config.max_iterations,
            tolerance=paper_config.tolerance,
            iterate_dtype=np.float64,
        )
        np.testing.assert_array_equal(
            structured.coefficients, plain.coefficients
        )
        np.testing.assert_array_equal(
            structured.iterations, plain.iterations
        )
        assert not structured.restarts.any()


class TestRestartedFastLeg:
    """The float32 leg with restart on, against its plain twin."""

    @pytest.mark.parametrize("name", ["100", "119"])
    def test_fewer_iterations_same_minimiser(
        self, paper_blocks, paper_config, name
    ):
        case = paper_blocks[name]
        plain = _solve(case, paper_config, np.float32, restart=False)
        fast = _solve(case, paper_config, np.float32, restart=True)
        ratio = fast.iterations / plain.iterations
        assert ratio.max() <= 0.6, ratio
        assert fast.iterations.mean() <= 0.4 * plain.iterations.mean()
        assert fast.converged.all()  # nobody rides the cap
        assert (fast.restarts > 0).all()
        # same objective, same minimiser: stopped sooner, not elsewhere
        reference = _objective(case, plain.coefficients)
        gap = (_objective(case, fast.coefficients) - reference) / reference
        assert gap.max() < 1e-4, gap

        # the per-coefficient step is worth its share of that: the same
        # restarted leg at the one scalar L, only the step's metric differs
        structure = case["structure"]
        rows = structure.coefficient_lipschitz
        assert rows.min() < 0.25 * structure.lipschitz
        assert np.count_nonzero(rows > rows.min()) == 16
        scalar = _solve(
            case,
            paper_config,
            np.float32,
            restart=True,
            lipschitz=structure.lipschitz,
        )
        assert fast.iterations.mean() <= 0.85 * scalar.iterations.mean()

    def test_structured_solve_reports_fast_leg_restarts(
        self, paper_blocks, paper_config
    ):
        case = paper_blocks["100"]
        fast = _solve(case, paper_config, np.float32, restart=True)
        hybrid = structured_batched_fista(
            case["structure"],
            case["block"],
            paper_config.lam,
            max_iterations=paper_config.max_iterations,
            tolerance=paper_config.tolerance,
        )
        assert not hybrid.polished.any()
        np.testing.assert_array_equal(hybrid.restarts, fast.restarts)
        np.testing.assert_array_equal(hybrid.iterations, fast.iterations)
        np.testing.assert_array_equal(
            hybrid.coefficients, fast.coefficients.astype(np.float64)
        )


def _assert_columns_independent(case, config, wide):
    """Every column of ``wide`` agrees with its own B=1 solve."""
    psi = case["structure"].psi64
    for column in range(case["block"].shape[1]):
        if not case["block"][:, column].any():
            assert not wide.coefficients[:, column].any()
            continue
        alone = _solve(
            case, config, np.float32, True, slice(column, column + 1)
        )
        signal = psi @ wide.coefficients[:, column].astype(np.float64)
        signal_alone = psi @ alone.coefficients[:, 0].astype(np.float64)
        assert _rel_l2(signal, signal_alone) < 1e-2, column
        assert (
            abs(int(wide.iterations[column]) - int(alone.iterations[0]))
            <= 0.15 * alone.iterations[0]
        ), column
        truth = case["windows"][column]
        if truth is not None:
            assert abs(
                prd(truth, signal) - prd(truth, signal_alone)
            ) < 0.05, column


class TestColumnIndependence:
    def test_each_column_matches_its_own_single_solve(
        self, paper_blocks, paper_config
    ):
        """Restart decisions read only the column's own iterates: a
        B=16 solve and sixteen B=1 solves agree up to float32 GEMM
        noise flipping an occasional restart."""
        both = [paper_blocks["100"], paper_blocks["119"]]
        case = {
            "structure": both[0]["structure"],
            "block": np.concatenate([c["block"] for c in both], axis=1),
            "lams": np.concatenate([c["lams"] for c in both]),
            "windows": [w for c in both for w in c["windows"]],
        }
        wide = _solve(case, paper_config, np.float32, restart=True)
        _assert_columns_independent(case, paper_config, wide)

        again = _solve(case, paper_config, np.float32, restart=True)
        np.testing.assert_array_equal(wide.coefficients, again.coefficients)
        np.testing.assert_array_equal(wide.iterations, again.iterations)
        np.testing.assert_array_equal(wide.restarts, again.restarts)

    def test_compaction_carries_the_column_clock(
        self, paper_blocks, paper_config
    ):
        """An all-zero column (done at iteration 1), an easy synthetic
        sparse column and real hard windows in one block: the working
        set compacts several times mid-solve, and every survivor must
        keep *its* clock — compacting the iterates but not the clock
        hands each column a neighbour's momentum schedule."""
        real = paper_blocks["119"]
        structure = real["structure"]
        rng = np.random.default_rng(5)
        sparse = np.zeros(structure.dense64.shape[1])
        sparse[rng.choice(sparse.size, 12, replace=False)] = (
            rng.standard_normal(12) * 200.0
        )
        m = real["block"].shape[0]
        block = np.concatenate(
            [
                np.zeros((m, 1)),
                (structure.dense64 @ sparse)[:, None],
                real["block"][:, :6],
            ],
            axis=1,
        )
        case = {
            "structure": structure,
            "block": block,
            "lams": batched_lambda_from_fraction(
                structure.dense64, block, paper_config.lam
            ),
            "windows": [None, None, *real["windows"][:6]],
        }
        wide = _solve(case, paper_config, np.float32, restart=True)
        # freezes spread out enough to compact more than once
        assert len(set(wide.iterations.tolist())) >= 4
        assert wide.iterations[0] == 1 and wide.restarts[0] == 0
        _assert_columns_independent(case, paper_config, wide)


class TestPolishLegKeepsTheReference:
    def test_overflow_column_polishes_unrestarted(
        self, paper_blocks, paper_config
    ):
        """A float32-overflowing column leaves the corridor and is
        re-solved by the *un-restarted* float64 iteration: the polished
        column is exactly the reference kernel's answer from the fast
        leg's (reset) warm start."""
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
            fast = batched_fista(
                structure.operator(np.float32),
                block.astype(np.float32),
                lams,
                lipschitz=structure.lipschitz,
                operator_t=structure.operator_t(np.float32),
                restart=True,
                **kwargs,
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
        assert not polish.restarts.any()
        np.testing.assert_array_equal(
            result.coefficients[:, hard], polish.coefficients[:, 0]
        )
        assert result.iterations[hard] == (
            fast.iterations[hard] + polish.iterations[0]
        )
