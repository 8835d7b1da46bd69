# repro-lint test fixture: RL007 negatives.  Parsed only, never run.
import numpy as np


# repro-lint: f32
def fast_leg(psi):
    iterate = np.asarray(psi, dtype=np.float32)
    weights = np.zeros(iterate.shape, dtype=np.float32)
    bias = np.ones(4, np.float32)  # positional dtype counts too
    gain = iterate * np.float32(0.5)  # f32 scalar: no promotion
    out = np.empty(iterate.shape, dtype=iterate.dtype)
    np.multiply(iterate, weights, out=out)
    half = np.full(iterate.shape, 0.5, np.float32)  # dtype after the fill
    return gain + out + bias + half


def polish_exit(block, steps):
    block32 = np.asarray(block, dtype=np.float32)
    scale = np.float64(2.0)
    # repro-lint: hot
    for _ in range(steps):
        block32 = block32 * block32  # stays f32
    # deliberate f64 exit *outside* the marked region is free
    return block32.astype(np.float64) * scale


def unmarked(block):
    # no hot/f32 marker: mixed precision is not RL007's business
    return np.asarray(block, dtype=np.float32) * np.float64(3.0)


def cached_pair(cache, key, n):
    # a tuple of arrays on the build path, ``other`` on the hit path:
    # the join must reach a verdict, not raise
    value = cache.get(key)
    if value is None:
        value = (np.zeros(n, dtype=np.float32), np.zeros(n, dtype=np.float64))
        cache[key] = value
    return value
