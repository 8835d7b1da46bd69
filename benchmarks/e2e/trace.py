"""Traced run: timing wrappers and the per-window waterfall.

A traced run installs wrappers — from this file, around calls into
the layers' public functions — on the gateway's
``solve_measurement_block``, ``StreamRecovery.on_packet`` /
``on_parity`` / ``bye`` and ``PacketPayloadDecoder.decode_payload``,
and restores them on exit.  Their spans are joined with the load
generator's ``due`` / ``ack_recv`` stamps and ``gateway.batch_log`` by
window id ``(stream, sequence)`` into one waterfall per window::

    window  = [due, ack_recv]                       (root)
      wire_in   = [due, admit start]      lateness, socket, quota, hold
      admit     = [admit start, admit end]   the call that released it
      payload   = decode_payload span
      queue     = [payload end, solve start]  pooling + flush wait
      solve     = the batch's solve span, charged whole to each member
      route_ack = [solve end, ack_recv]

Only the gap between ``admit`` and ``payload`` (sibling windows of one
recovery drain decoding first, the quota acquire) is not covered by a
child; ``trace.unattributed_share`` is that gap over the root.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.ingest.gateway as gateway_module
from repro.core.decoder import PacketPayloadDecoder
from repro.ingest.channel import FrameVerdict, StreamRecovery

clock = time.perf_counter

STAGES = ("wire_in", "admit", "payload", "queue", "solve", "route_ack")
OFFLINE_STAGES = ("encode", "payload", "solve", "synthesis")


@dataclass
class Spans:
    """Raw spans of one traced run (kept in memory until exit)."""

    #: solve_measurement_block calls in call order == batch_log order
    #: (one operator group, solves serialized): (start, end, width)
    solves: list[tuple[float, float, int]] = field(default_factory=list)
    #: (stream, sequence) -> (start, end) of the recovery call that
    #: released the window for decoding
    admits: dict[tuple[str, int], tuple[float, float]] = field(
        default_factory=dict
    )
    #: (stream, sequence) -> (start, end) of its decode_payload call
    payloads: dict[tuple[str, int], tuple[float, float]] = field(
        default_factory=dict
    )


@contextlib.contextmanager
def _patched(owner, name: str, wrap):
    """Replace ``owner.name`` by ``wrap(original)``; restore on exit."""
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def tracing():
    """Install the live-path wrappers; yields the :class:`Spans`."""
    spans = Spans()
    stream_of_payload: dict[int, str] = {}

    def solve(original):
        def wrapper(task):
            start = clock()
            out = original(task)
            spans.solves.append((start, clock(), task["block"].shape[1]))
            return out

        return wrapper

    def recovery(original):
        def wrapper(self, *args):
            start = clock()
            events = original(self, *args)
            end = clock()
            stream = self.tracker.meter.labels.get("stream")
            if stream is not None:
                stream_of_payload[id(self.payload)] = stream
                for verdict, packet in events:
                    if verdict is FrameVerdict.ACCEPT:
                        spans.admits[(stream, packet.sequence)] = (start, end)
            return events

        return wrapper

    def payload(original):
        def wrapper(self, packet):
            start = clock()
            out = original(self, packet)
            stream = stream_of_payload.get(id(self))
            if stream is not None:
                spans.payloads[(stream, packet.sequence)] = (start, clock())
            return out

        return wrapper

    with contextlib.ExitStack() as stack:
        stack.enter_context(
            _patched(gateway_module, "solve_measurement_block", solve)
        )
        for name in ("on_packet", "on_parity", "bye"):
            stack.enter_context(_patched(StreamRecovery, name, recovery))
        stack.enter_context(
            _patched(PacketPayloadDecoder, "decode_payload", payload)
        )
        yield spans


@contextlib.contextmanager
def tracing_offline():
    """Wrappers for the ``FleetDecoder`` batch job, which has no
    per-window arrival: yields ``{stage: [seconds, calls]}`` totals
    for encode / payload / solve / synthesis under the job's root."""
    from repro.core.encoder import CSEncoder
    from repro.solvers import BatchedFista
    from repro.wavelet import WaveletTransform

    totals = {stage: [0.0, 0] for stage in OFFLINE_STAGES}

    def timed(stage):
        def wrap(original):
            def wrapper(*args, **kwargs):
                start = clock()
                out = original(*args, **kwargs)
                totals[stage][0] += clock() - start
                totals[stage][1] += 1
                return out

            return wrapper

        return wrap

    with contextlib.ExitStack() as stack:
        for owner, name, stage in (
            (CSEncoder, "encode_batch", "encode"),
            (PacketPayloadDecoder, "decode_payload", "payload"),
            (BatchedFista, "solve", "solve"),
            (WaveletTransform, "inverse_batch", "synthesis"),
        ):
            stack.enter_context(_patched(owner, name, timed(stage)))
        yield totals


def waterfall(spans: Spans, reports, results, batch_log) -> list[dict]:
    """Join spans, generator stamps and the batch log per window.

    ``reports`` are the links' :class:`~.loadgen.LinkReport`,
    ``results`` the gateway's stream results.  Returns one dict per
    acked window: ``id``, ``due``, ``ack``, ``batch``, ``width``,
    ``reason`` and the six stage durations in seconds (plus ``gap``,
    the unattributed remainder).
    """
    by_session = {result.session_id: result for result in results}
    stamps = {
        (f"{report.record}:0", sequence): (report.due[sequence], ack)
        for report in reports
        for sequence, ack in report.ack_recv.items()
    }
    windows = []
    for batch, ((_key, members, reason), (start, end, width)) in enumerate(
        zip(batch_log, spans.solves)
    ):
        for session_id, index in members:
            result = by_session[session_id]
            wid = (result.stream_key, result.sequences[index])
            if wid not in stamps:
                continue
            due, ack = stamps[wid]
            payload = spans.payloads[wid]
            # a window drained by the final give-up (``close()``, not a
            # wrapped entry point) has no admit span of its own
            admit = spans.admits.get(wid, (payload[0], payload[0]))
            windows.append(
                {
                    "id": list(wid),
                    "due": due,
                    "ack": ack,
                    "batch": batch,
                    "width": width,
                    "reason": reason,
                    "wire_in": admit[0] - due,
                    "admit": admit[1] - admit[0],
                    "gap": payload[0] - admit[1],
                    "payload": payload[1] - payload[0],
                    "queue": start - payload[1],
                    "solve": end - start,
                    "route_ack": ack - end,
                }
            )
    return windows


def unattributed_share(windows: list[dict]) -> float:
    """Share of the root spans no child covers."""
    root = sum(w["ack"] - w["due"] for w in windows)
    covered = sum(sum(w[stage] for stage in STAGES) for w in windows)
    return abs(root - covered) / root if root > 0 else 0.0


def write_trace(path: Path, workload: str, windows: list[dict], spans: Spans) -> None:
    """Write the spans as one JSON document (see README, "Reading a
    trace file")."""
    records = []
    for window in windows:
        cursor = window["due"]
        records.append(
            {
                "name": "window",
                "id": window["id"],
                "parent": None,
                "start": window["due"],
                "end": window["ack"],
                "batch": window["batch"],
                "width": window["width"],
                "reason": window["reason"],
            }
        )
        for stage in STAGES:
            if stage == "payload":
                cursor += window["gap"]
            records.append(
                {
                    "name": stage,
                    "id": window["id"],
                    "parent": "window",
                    "start": cursor,
                    "end": cursor + window[stage],
                }
            )
            cursor += window[stage]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "workload": workload,
                "clock": "time.perf_counter seconds",
                "spans": records,
                "solves": [
                    {"batch": i, "start": s, "end": e, "width": w}
                    for i, (s, e, w) in enumerate(spans.solves)
                ],
            }
        )
    )
