"""Fleet decode: operator-keyed cross-stream batching on one solve path.

The paper's phone-side decoder is the system bottleneck, and the
batched engine of :mod:`repro.core.batch` only amortizes it *within*
one lead of one record.  A telecardiology coordinator faces the
opposite shape: many concurrent node streams — every lead of a
multi-lead monitor, many records, a fleet of wearables — where
throughput per core, not per-stream latency, is the budget.  This
package pools those sources into shared solves.

Architecture
============

**Operator-group keying.**  A batched FISTA solve iterates one dense
operator ``A = Phi Psi^-1`` over an ``(m, B)`` block, so only streams
with the *same* sensing matrix and wavelet basis can share a batch.
:func:`~repro.core.decoder.operator_key` captures that identity
(``n``, ``m``, ``d``, seed, wavelet, levels, precision): per-lead
sensing seeds put each lead of a
:class:`~repro.core.multichannel.MultiChannelMonitor` in its own group,
while a fleet of nodes shipping the paper's shared fixed matrix
collapses into one.  Per group, a process keeps exactly one operator,
one Lipschitz estimate and one contiguous transpose (the shared
bounded cache behind :func:`~repro.core.decoder.resources_for`); each
solve allocates its own iteration scratch.
:func:`~repro.core.decoder.solve_key` adds the solver's stopping
parameters, because a shared batched loop runs every column with one
``max_iterations``/``tolerance`` pair.  A group's streams concatenate
in submission order into one pooled column block, so each stream owns
one contiguous column range of it, and batches are ``batch_size``-wide
spans of that block: they fill *across* the group's streams, so ragged
per-stream tails merge into full-width solves.
Per-stream state that cannot be shared — Huffman codebook, closed-loop
difference reference, lambda fraction, dc offset — stays with each
stream's :class:`~repro.core.decoder.PacketPayloadDecoder`; each
batch's results land in group-wide arrays at its span, and each
stream's :class:`~repro.core.system.StreamResult` reads its own range
back, in order.

**One task per batch, no-matrix-pickling workers.**  Stages 1-2 run
in the parent; every batch of every group is one
:func:`~repro.fleet.engine.solve_measurement_block` task on a
:class:`~repro.fleet.executor.SolveExecutor` — called inline when
``workers in (0, 1)``, mapped over a process pool of single-BLAS-thread
workers when ``workers >= 2`` or, with ``workers`` unset, one per
usable CPU when a group runs a serial-FISTA backend.  A free worker
takes the next batch, whichever group it belongs to, so two or more
groups simply contribute more tasks to the same map (and the paper's
fleet, every node on the one fixed matrix, no longer serializes on one
process's BLAS).  A task serializes only scalar config fields and
float measurement columns (kilobytes per batch); a worker rebuilds the
dense operator from the seed once per operator group and caches it for
the life of the process, so no matrix is ever pickled in either
direction; only decoded sample/iteration arrays come back.  The same
executor and the same task function serve the live gateway
(:mod:`repro.ingest`), one flush per task.

Equivalence contract: packets are produced by the unchanged integer
encoder (bit-identical to the serial reference), and every pooled
column follows the serial FISTA iterate sequence via the batched
solver's per-column convergence masking — reconstructions match the
serial path to solver floating-point noise regardless of how batches
span streams.  ``tests/fleet/test_fleet.py`` pins this the same way
``tests/core/test_batch.py`` pins the single-stream engine.
"""

from ..core.decoder import operator_key, solve_key
from .engine import FleetDecoder, StreamTask, solve_measurement_block

__all__ = [
    "FleetDecoder",
    "StreamTask",
    "solve_measurement_block",
    "operator_key",
    "solve_key",
]
