"""Concurrent solves of one cached operator.

The gateway may run several solves in-process, so two threads may call
:func:`~repro.core.decoder.solve_block` on the same cached
:class:`~repro.core.decoder.SolveResources` at once.  Each solve
allocates its own scratch, the hybrid operator's resolvent cache is
read and built under its own lock, and the operator cache builds an
uncached operator once however many threads ask for it.  These tests
pin that the overlap changes no bit.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.core.decoder as decoder_module
from repro.core.decoder import (
    build_resources,
    operator_key,
    resources_for,
    solve_block,
)


def _fresh(config, precision):
    """An operator of its own, built past the process cache, so its
    resolvent cache starts fresh."""
    return build_resources.__wrapped__(*operator_key(config, precision))


def _blocks(config, count, width=6, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(config.m, width)) for _ in range(count)]


def _solve(resources, config, block):
    signals, result = solve_block(
        resources,
        block,
        np.full(block.shape[1], config.lam),
        config.max_iterations,
        config.tolerance,
    )
    return signals, np.asarray(result.iterations).copy()


def _overlapped(calls):
    """Run every ``(fn, *args)`` on a thread of its own, all released by
    one barrier; returns their results in call order."""
    barrier = threading.Barrier(len(calls))
    results: list = [None] * len(calls)
    errors: list[BaseException] = []

    def run(index, fn, *args):
        barrier.wait()
        try:
            results[index] = fn(*args)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(index, *call))
        for index, call in enumerate(calls)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two solves finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    return results


@pytest.mark.parametrize("precision", ["float64", "hybrid"])
def test_two_threads_on_one_operator_match_sequential_solves(
    small_config, precision
):
    resources = _fresh(small_config, precision)
    blocks = _blocks(small_config, 6)
    sequential = [_solve(resources, small_config, block) for block in blocks]
    threaded = []
    for first, second in zip(blocks[::2], blocks[1::2]):
        threaded.extend(
            _overlapped(
                [
                    (_solve, resources, small_config, first),
                    (_solve, resources, small_config, second),
                ]
            )
        )
    for (signals, iterations), (got_signals, got_iterations) in zip(
        sequential, threaded
    ):
        np.testing.assert_array_equal(got_signals, signals)
        np.testing.assert_array_equal(got_iterations, iterations)


@pytest.mark.parametrize("precision", ["float64", "hybrid"])
def test_sequential_solves_match_lone_solves(small_config, precision):
    """Nothing a solve leaves on the operator moves a later solve's
    bits: back-to-back solves on one operator give each block the bits
    an operator of its own gives it."""
    resources = _fresh(small_config, precision)
    blocks = _blocks(small_config, 3)
    sequential = [_solve(resources, small_config, block) for block in blocks]
    for block, (signals, iterations) in zip(blocks, sequential):
        alone_signals, alone_iterations = _solve(
            _fresh(small_config, precision), small_config, block
        )
        np.testing.assert_array_equal(signals, alone_signals)
        np.testing.assert_array_equal(iterations, alone_iterations)


def test_fresh_hybrid_operator_builds_one_resolvent_pair(
    small_config, monkeypatch
):
    """Two first solves at one ``rho`` race into an empty resolvent
    cache: the second must wait for the first's pair, not build its
    own.  The build is slowed so that both solves reach it."""
    resources = _fresh(small_config, "hybrid")
    builds = []
    solve = np.linalg.solve

    def slow_solve(*args, **kwargs):
        builds.append(threading.get_ident())
        time.sleep(0.05)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", slow_solve)
    first, second = _blocks(small_config, 2)
    threaded = _overlapped(
        [
            (_solve, resources, small_config, first),
            (_solve, resources, small_config, second),
        ]
    )
    assert len(builds) == 1
    assert len(resources.solver.structure._admm_pairs) == 1
    for block, (signals, iterations) in zip((first, second), threaded):
        expected_signals, expected_iterations = _solve(
            resources, small_config, block
        )
        np.testing.assert_array_equal(signals, expected_signals)
        np.testing.assert_array_equal(iterations, expected_iterations)


@pytest.mark.parametrize("precision", ["float64", "hybrid"])
def test_two_first_lookups_build_the_operator_once(
    small_config, precision, monkeypatch
):
    """Two threads solving on an operator the cache does not hold yet
    share one build: the second lookup waits for the first's entry.
    The build is slowed so that both lookups reach it."""
    solver_class = decoder_module.BatchedFista

    class SlowBuild(solver_class):
        def __init__(self, *args, **kwargs):
            time.sleep(0.05)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(decoder_module, "BatchedFista", SlowBuild)
    first, second = _blocks(small_config, 2)

    def solve_cached(block):
        return _solve(
            resources_for(small_config, precision), small_config, block
        )

    build_resources.cache_clear()
    try:
        threaded = _overlapped([(solve_cached, first), (solve_cached, second)])
        assert build_resources.cache_info().misses == 1
    finally:
        build_resources.cache_clear()  # no slowed solver outlives the test
    fresh = _fresh(small_config, precision)
    for block, (signals, iterations) in zip((first, second), threaded):
        expected_signals, expected_iterations = _solve(
            fresh, small_config, block
        )
        np.testing.assert_array_equal(signals, expected_signals)
        np.testing.assert_array_equal(iterations, expected_iterations)
