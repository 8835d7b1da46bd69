# repro-lint test fixture: RL003 negatives.  Parsed only, never run.
import numpy as np


def iterate(operator, y, steps):
    buf = np.zeros(y.shape)  # preallocated, outside the loop
    out = np.zeros(operator.shape[1])
    # repro-lint: hot
    for _ in range(steps):
        np.matmul(operator, out, out=buf)  # in-place: no allocation
        buf -= y
        out -= 0.1 * (operator.T @ buf)
    return out


def unmarked(y, steps):
    # loops without a hot marker may allocate freely
    for _ in range(steps):
        y = np.zeros(y.shape) + y.copy()
    return y
