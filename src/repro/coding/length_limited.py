"""Length-limited prefix codes via the package-merge algorithm.

The paper's codebook covers 512 symbols with a **maximum codeword length
of 16 bits**.  Plain Huffman construction does not respect a length cap,
so we implement the package-merge algorithm (Larmore & Hirschberg, 1990),
which produces the optimal prefix code subject to ``length <= limit``.

The algorithm runs on arrays.  A level is the stable merge of the
sorted leaves with the pairwise sums of the level below, a leaf going
first on equal weight.  Only which merged items are leaves needs
keeping, because the items a solution takes are always prefixes: the
first ``2(n-1)`` items of the last level, then, one level down, the
first two items per package taken above.  A symbol's codeword length is
the number of levels whose taken prefix reaches its leaf.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import CodebookError

_INT64_MAX = np.iinfo(np.int64).max


def package_merge_lengths(frequencies: Sequence[int], max_length: int) -> list[int]:
    """Optimal codeword lengths with ``length <= max_length`` for all symbols.

    Zero-frequency symbols receive length 0.  Raises
    :class:`~repro.errors.CodebookError` when the alphabet cannot be coded
    within ``max_length`` bits (i.e. more than ``2**max_length`` active
    symbols).  Ties between equal weights break by symbol index, so the
    lengths are a pure function of the table.
    """
    if max_length < 1:
        raise CodebookError(f"max_length must be >= 1, got {max_length}")
    if any(freq < 0 for freq in frequencies):
        raise CodebookError("frequencies must be non-negative")
    active = [
        (int(freq), index) for index, freq in enumerate(frequencies) if freq > 0
    ]
    if not active:
        raise CodebookError("at least one symbol must have nonzero frequency")

    lengths = [0] * len(frequencies)
    if len(active) == 1:
        lengths[active[0][1]] = 1
        return lengths
    if len(active) > (1 << max_length):
        raise CodebookError(
            f"{len(active)} symbols cannot be coded in <= {max_length} bits"
        )

    leaves = sorted(active)
    count = len(leaves)
    # every item of level l weighs at most the sum of that level, which
    # is at most (l + 1) times the leaves' total: exact in int64 below
    # that bound, exact as Python ints (an object array) above it
    total = sum(weight for weight, _ in leaves)
    dtype = np.int64 if max_length * total <= _INT64_MAX else object
    leaf_weights = np.array([weight for weight, _ in leaves], dtype=dtype)

    level = leaf_weights
    leaf_flags: list[np.ndarray] = []  # per merged level: is item i a leaf
    for _ in range(max_length - 1):
        pairs = len(level) // 2 * 2
        packages = level[0:pairs:2] + level[1:pairs:2]
        combined = np.concatenate((leaf_weights, packages))
        order = np.argsort(combined, kind="stable")  # leaves first on ties
        level = combined[order]
        leaf_flags.append(order < count)

    taken = 2 * (count - 1)
    if len(level) < taken:
        raise CodebookError("package-merge failed: not enough packages")
    depth = np.zeros(count, dtype=np.int64)  # per leaf, in sorted order
    for is_leaf in reversed(leaf_flags):
        leaves_taken = int(np.count_nonzero(is_leaf[:taken]))
        depth[:leaves_taken] += 1
        taken = 2 * (taken - leaves_taken)
    depth[:taken] += 1  # the first level is leaves only

    for (_, symbol), length in zip(leaves, depth.tolist()):
        lengths[symbol] = length
    if max(lengths) > max_length:
        raise CodebookError("package-merge produced an over-long codeword")
    return lengths
