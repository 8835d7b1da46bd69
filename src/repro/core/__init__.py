"""The paper's contribution: the complete CS-ECG encoder/decoder pair.

- :mod:`repro.core.quantizer` — the measurement quantizer between the
  integer sensing accumulator and the difference coder;
- :mod:`repro.core.packets` — the on-air packet format (keyframe/diff,
  headers, CRC-16, serialization);
- :mod:`repro.core.encoder` — :class:`CSEncoder`, the three-stage node
  pipeline (sparse binary sensing -> redundancy removal -> Huffman);
- :mod:`repro.core.decoder` — :class:`CSDecoder`, the mirrored pipeline
  (Huffman -> packet reconstruction -> FISTA -> inverse wavelet);
- :mod:`repro.core.system` — :class:`EcgMonitorSystem`, streaming a
  record end-to-end and collecting CR/PRD/SNR/iteration statistics;
- :mod:`repro.core.batch` — whole-record windowing and vectorized
  sensing/differencing, the front end of every batched driver.

Batched decoding — one stream behind ``stream(batch_size=...)`` or
many records/leads pooled — lives one level up in :mod:`repro.fleet`,
built on :class:`PacketPayloadDecoder` (the operator-free stages 1-2)
and :func:`encode_record_windows`.
"""

from .quantizer import MeasurementQuantizer
from .packets import EncodedPacket, PacketKind, crc16_ccitt
from .encoder import CSEncoder, EncoderStats
from .decoder import CSDecoder, DecodedPacket, PacketPayloadDecoder
from .system import EcgMonitorSystem, StreamResult, PacketResult
from .multichannel import MultiChannelMonitor
from .batch import (
    DEFAULT_BATCH_SIZE,
    encode_record_windows,
    window_record,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "encode_record_windows",
    "window_record",
    "PacketPayloadDecoder",
    "MeasurementQuantizer",
    "EncodedPacket",
    "PacketKind",
    "crc16_ccitt",
    "CSEncoder",
    "EncoderStats",
    "CSDecoder",
    "DecodedPacket",
    "EcgMonitorSystem",
    "StreamResult",
    "PacketResult",
    "MultiChannelMonitor",
]
