"""The shared decoded-sample ring buffer between decoder and display.

The paper sizes it at 6 seconds of ECG: "2 sec. for reading, 2 sec. for
writing and 2 additional sec. due to the delay on the iPhone drawing
hardware".  The buffer counts samples (not bytes) and tracks occupancy
extremes and under/overrun events for the pipeline report.
"""

from __future__ import annotations

from ..errors import BufferOverrunError, BufferUnderrunError


class SampleRingBuffer:
    """Fixed-capacity FIFO of decoded ECG samples with statistics."""

    def __init__(self, capacity_samples: int, strict: bool = True) -> None:
        if capacity_samples < 1:
            raise ValueError(
                f"capacity_samples must be >= 1, got {capacity_samples}"
            )
        self.capacity = int(capacity_samples)
        self.strict = bool(strict)
        self.occupancy = 0
        self.total_written = 0
        self.total_read = 0
        self.overruns = 0
        self.underruns = 0
        self.max_occupancy = 0
        self._min_after_start = self.capacity
        self._started = False

    @property
    def free(self) -> int:
        """Remaining capacity."""
        return self.capacity - self.occupancy

    @property
    def min_occupancy_after_start(self) -> int:
        """Lowest occupancy seen since the consumer's first read.

        If the consumer never started (the display never drew a pixel),
        no steady-state minimum exists; the honest answer is 0 — nothing
        was ever guaranteed to be available to a reader — rather than
        the full-capacity placeholder the tracker is initialized with.
        """
        if not self._started:
            return 0
        return self._min_after_start

    def occupancy_seconds(self, sample_rate_hz: float) -> float:
        """Occupancy expressed in seconds of signal."""
        if sample_rate_hz <= 0:
            raise ValueError(
                f"sample_rate_hz must be positive, got {sample_rate_hz}"
            )
        return self.occupancy / sample_rate_hz

    # ------------------------------------------------------------------
    def write(self, count: int) -> int:
        """Produce ``count`` samples; returns how many were accepted.

        In strict mode an overflow raises; otherwise the excess is
        dropped and counted as an overrun event.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        accepted = min(count, self.free)
        if accepted < count:
            self.overruns += 1
            if self.strict:
                raise BufferOverrunError(
                    f"ring buffer overflow: writing {count}, free {self.free}"
                )
        self.occupancy += accepted
        self.total_written += accepted
        self.max_occupancy = max(self.max_occupancy, self.occupancy)
        return accepted

    def read(self, count: int) -> int:
        """Consume ``count`` samples; returns how many were available.

        In strict mode a shortfall raises; otherwise it is counted as an
        underrun (a display glitch) and the reader gets what exists.
        Minimum-occupancy tracking starts at the first read, so the
        initial buffering phase does not pollute the statistic.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if not self._started:
            self._started = True
        available = min(count, self.occupancy)
        if available < count:
            self.underruns += 1
            if self.strict:
                raise BufferUnderrunError(
                    f"ring buffer underrun: reading {count}, have {self.occupancy}"
                )
        self.occupancy -= available
        self.total_read += available
        self._min_after_start = min(self._min_after_start, self.occupancy)
        return available
