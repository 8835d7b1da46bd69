"""Operator-keyed scheduling of cross-stream decode batches.

The scheduler answers two questions for the fleet engine:

1. **Which streams may share a solve?**  A batched FISTA iteration runs
   against one dense operator ``A = Phi Psi^-1``; only streams whose
   sensing matrix and wavelet basis coincide (same ``m``, ``n``, ``d``,
   seed, wavelet, levels and float precision) can stack their
   measurement columns into the same ``(m, B)`` block.
   :func:`~repro.core.decoder.operator_key` captures that identity;
   :func:`solve_key` additionally folds in the solver's stopping
   parameters, because a shared batched loop runs every column with one
   ``max_iterations``/``tolerance`` pair.

2. **How are a group's windows packed into batches?**
   :class:`GroupSchedule` concatenates the group's streams in
   submission order (each stream's windows stay in their own order —
   the stateful entropy/differencing stages upstream require it, and
   routing back is positional) and slices the pooled column axis into
   ``batch_size``-wide solves.  Batches therefore *span stream
   boundaries*: ragged per-stream tails merge into full-width blocks,
   which is where the cross-stream throughput win over per-stream
   batching comes from.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..core.decoder import operator_key
from ..errors import ConfigurationError


def solve_key(config: SystemConfig, precision: str = "float64") -> tuple:
    """Operator identity plus the shared solver stopping parameters."""
    return operator_key(config, precision) + (
        config.max_iterations,
        config.tolerance,
    )


@dataclass(frozen=True, eq=False)
class GroupSchedule:
    """Column routing for one operator group's pooled decode.

    ``eq=False``: the generated comparisons would reduce the routing
    arrays ambiguously; identity comparison (and hashability) is what
    the engine needs.

    Attributes
    ----------
    stream_ids:
        Task-list indices of the group's streams, in submission order.
    counts:
        Windows contributed by each stream.
    batch_size:
        Target solve width.
    stream_of / index_of:
        For pooled column ``c``: the *local* stream position (index
        into ``stream_ids``) and the window index within that stream.
    """

    stream_ids: tuple[int, ...]
    counts: tuple[int, ...]
    batch_size: int
    stream_of: np.ndarray
    index_of: np.ndarray

    @classmethod
    def build(
        cls,
        stream_ids: Sequence[int],
        counts: Sequence[int],
        batch_size: int,
    ) -> "GroupSchedule":
        """Lay out the pooled column order for one group."""
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if len(stream_ids) != len(counts) or not stream_ids:
            raise ConfigurationError(
                f"need matching non-empty stream_ids/counts, got "
                f"{len(stream_ids)}/{len(counts)}"
            )
        if any(count < 1 for count in counts):
            raise ConfigurationError(f"every stream needs >= 1 window: {counts}")
        stream_of = np.repeat(np.arange(len(counts)), counts)
        index_of = np.concatenate([np.arange(count) for count in counts])
        return cls(
            stream_ids=tuple(int(s) for s in stream_ids),
            counts=tuple(int(c) for c in counts),
            batch_size=int(batch_size),
            stream_of=stream_of,
            index_of=index_of,
        )

    @property
    def total_windows(self) -> int:
        """Pooled column count across the group's streams."""
        return int(self.stream_of.size)

    @property
    def num_batches(self) -> int:
        """Solves this schedule issues (last one may be ragged)."""
        return -(-self.total_windows // self.batch_size)

    def batches(self) -> Iterator[tuple[int, int]]:
        """Yield ``(start, stop)`` pooled-column ranges per solve."""
        for start in range(0, self.total_windows, self.batch_size):
            yield start, min(start + self.batch_size, self.total_windows)


def build_schedules(
    keys: Sequence[tuple],
    counts: Sequence[int],
    batch_size: int,
) -> list[GroupSchedule]:
    """Group streams by solve key and schedule each group's batches.

    ``keys[i]``/``counts[i]`` describe stream ``i`` of the task list;
    groups come back in order of each key's first appearance, so the
    fleet's output routing is deterministic.
    """
    if len(keys) != len(counts):
        raise ConfigurationError(
            f"keys/counts length mismatch: {len(keys)} vs {len(counts)}"
        )
    by_key: dict[tuple, list[int]] = {}
    for stream_id, key in enumerate(keys):
        by_key.setdefault(key, []).append(stream_id)
    return [
        GroupSchedule.build(
            members, [counts[s] for s in members], batch_size
        )
        for members in by_key.values()
    ]
