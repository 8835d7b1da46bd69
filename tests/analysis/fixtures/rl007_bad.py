# repro-lint test fixture: RL007 positives.  Parsed only, never run.
import numpy as np


# repro-lint: f32
def fast_leg(psi):
    iterate = np.asarray(psi, dtype=np.float32)
    weights = np.zeros(iterate.shape)  # line 8: allocator without dtype
    bias = np.ones(4)  # line 9: allocator without dtype
    gain = iterate * np.float64(0.5)  # line 10: f32 x f64 binop
    table = np.float64(1.0)
    mixed = np.add(iterate, table)  # line 12: binary ufunc promotion
    fill = np.full(iterate.shape, 0.5)  # line 13: 0.5 is the fill, not a dtype
    blend = iterate + fill  # line 14: f32 x f64 binop
    return gain + mixed + weights + bias + blend


def hot_leg(block, steps):
    block32 = np.asarray(block, dtype=np.float32)
    scale = np.float64(2.0)
    total = np.zeros_like(block32)
    # repro-lint: hot
    for _ in range(steps):
        total += block32 * scale  # line 24: promotion in a hot loop
    return total
