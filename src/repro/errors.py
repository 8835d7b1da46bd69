"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch a single base class.  Sub-hierarchies mirror the
package layout: configuration, coding (bitstream/Huffman), sensing,
solver, platform-model and real-time-simulation errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError, ValueError):
    """A :class:`~repro.config.SystemConfig` (or related parameter set) is invalid."""


class CodingError(ReproError):
    """Base class for lossless-coding errors."""


class BitstreamError(CodingError):
    """Reading past the end of a bitstream or writing malformed fields."""


class CodebookError(CodingError):
    """A Huffman codebook is malformed, incomplete or violates its length limit."""


class DecodingError(CodingError):
    """A compressed payload cannot be decoded (corruption, truncation...)."""


class SensingError(ReproError, ValueError):
    """A sensing matrix is requested with invalid or unsatisfiable parameters."""


class SolverError(ReproError):
    """A reconstruction solver failed (bad operator, invalid parameters)."""


class PlatformModelError(ReproError, ValueError):
    """A platform cost/energy model received inconsistent parameters."""


class MemoryBudgetError(PlatformModelError):
    """A firmware image does not fit the target's RAM/flash budget."""


class RealTimeError(ReproError):
    """Base class for discrete-event real-time simulation errors."""


class BufferOverrunError(RealTimeError):
    """A producer overwrote data the consumer has not read yet."""


class BufferUnderrunError(RealTimeError):
    """A consumer requested data the producer has not written yet."""


class PacketFormatError(ReproError):
    """A serialized packet does not follow the on-air format."""


class ProtocolError(ReproError):
    """A gateway link violates the ingest wire protocol (bad frame,
    truncated stream, unsupported handshake...)."""


class TelemetryError(ReproError, ValueError):
    """A telemetry metric, snapshot or sink is used inconsistently
    (mismatched histogram buckets, malformed ring record, ...)."""
