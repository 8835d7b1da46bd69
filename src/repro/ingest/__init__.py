"""Live ingestion: asyncio node links feeding pooled fleet solves.

The paper's deployment loop is a body-worn encoder streaming compressed
ECG over a radio to a monitor that decodes in real time.  The offline
engine (:mod:`repro.fleet`) is fed whole pre-read records; this
package closes the loop with the *live* wire path a telecardiology
coordinator actually runs:

- :mod:`~repro.ingest.protocol` — the length-prefixed frame format and
  JSON handshake a node link speaks (versioned; packet frames carry
  the exact CRC-protected on-air bytes);
- :mod:`~repro.ingest.gateway` — :class:`IngestGateway`, the asyncio
  server: accepts TCP or in-process links, runs the stateful decode
  stages per stream, pools measurement columns per operator group
  (same keying as the offline fleet), and flushes batched solves the
  moment the solver is idle — else on batch-full / deadline /
  stream-end triggers — with per-stream backpressure;
- :mod:`~repro.ingest.client` — :class:`NodeClient`, the node-side
  simulator replaying records at true (or accelerated) sample rate;
- :mod:`~repro.ingest.channel` — the lossy-radio model: a seeded
  :class:`LossyLink` impairment wrapper (drops, reorders, duplicates,
  CRC-corrupting bit flips) plus the sequence-gap recovery state
  machine (:class:`SequenceTracker`, :class:`ResyncAnchor`,
  :func:`admit_packet`, and the two-tier :class:`StreamRecovery`
  parity/NACK front-end) the gateway runs per session, and
  :func:`replay_survivors`, the offline reference over a recorded
  delivered-frame sequence;
- :mod:`~repro.ingest.federation` — :class:`FederationFrontDoor`, the
  multi-gateway scale-out tier: a seeded consistent-hash front door
  that routes each node link by its *operator key* to one of N
  supervised gateway worker processes (keeping every group's shared
  ``A`` precompute and cross-stream batching on one gateway), remaps
  only the dead worker's ring segment on failure, and rolls worker
  telemetry up through monoid snapshot deltas.

Every gateway event — sessions, flushes, solve and window latencies,
channel damage — publishes through one
:class:`~repro.telemetry.MetricsRegistry`; the stat dataclasses
(:class:`GatewayStats`, :class:`IngestStreamResult`) are read models
over it, and the registry feeds the persistent sinks (`serve
--metrics-file` / ``--metrics-port``).

Decoded output is bit-identical to the offline path: a flushed block
runs the same :func:`~repro.fleet.engine.solve_measurement_block` the
fleet engine runs per batch, on the same pooled columns — and
under loss, the delivered windows are bit-identical to an offline
decode of the same surviving packet set, with the damage bounded by
the keyframe interval and accounted per stream.
"""

from .channel import (
    HOLD_CAP_EPOCHS,
    NACK_AFTER_FRAMES,
    FrameVerdict,
    LinkStats,
    LossAccounting,
    LossyChannel,
    LossyLink,
    ResyncAnchor,
    SequenceTracker,
    StreamRecovery,
    admit_packet,
    replay_survivors,
)
from .client import NodeClient, NodeReport, encoded_packets
from .federation import (
    SESSION_ID_STRIDE,
    FederationFrontDoor,
    FederationStats,
)
from .gateway import (
    DEFAULT_FLUSH_MS,
    GatewayStats,
    IngestGateway,
    IngestStreamResult,
    merge_stream_results,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameKind,
    Handshake,
    encode_frame,
    encode_json_frame,
    read_frame,
)

__all__ = [
    "DEFAULT_FLUSH_MS",
    "FederationFrontDoor",
    "FederationStats",
    "FrameKind",
    "FrameVerdict",
    "GatewayStats",
    "HOLD_CAP_EPOCHS",
    "Handshake",
    "IngestGateway",
    "IngestStreamResult",
    "LinkStats",
    "LossAccounting",
    "LossyChannel",
    "LossyLink",
    "MAX_FRAME_BYTES",
    "NACK_AFTER_FRAMES",
    "NodeClient",
    "NodeReport",
    "PROTOCOL_VERSION",
    "ResyncAnchor",
    "SESSION_ID_STRIDE",
    "SUPPORTED_VERSIONS",
    "SequenceTracker",
    "StreamRecovery",
    "admit_packet",
    "encode_frame",
    "encode_json_frame",
    "encoded_packets",
    "merge_stream_results",
    "read_frame",
    "replay_survivors",
]
