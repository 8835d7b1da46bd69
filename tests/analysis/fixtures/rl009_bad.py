# repro-lint test fixture: RL009 positives.  Parsed only, never run.
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np


def ship_matrix(block):
    dense = np.asarray(block, dtype=np.float64)
    pool = ProcessPoolExecutor(max_workers=2)
    return pool.submit(solve, dense)  # line 11: a process-pool dispatch


def ship_operator(matrix, synthesis):
    operator = StructuredOperator(matrix, synthesis)
    pool = multiprocessing.Pool(2)
    return pool.apply(solve, operator)  # line 17: a process-pool dispatch


def ship_lambda(tasks):
    executor = ProcessPoolExecutor()
    return executor.submit(lambda t: t, tasks)  # line 22: dispatch + closure


def ship_nested(tasks):
    def worker(task):
        return task

    pool = multiprocessing.Pool()
    return pool.map(worker, tasks)  # line 30: dispatch + nested def


async def ship_via_executor(loop, shape):
    block = np.zeros(shape)
    return await loop.run_in_executor(  # line 35: dispatch
        process_pool, solve, block
    )
