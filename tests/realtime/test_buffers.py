"""Tests for the 6-second shared ring buffer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferOverrunError, BufferUnderrunError
from repro.realtime import SampleRingBuffer


class TestBasics:
    def test_write_then_read(self):
        buffer = SampleRingBuffer(100)
        assert buffer.write(40) == 40
        assert buffer.occupancy == 40
        assert buffer.read(30) == 30
        assert buffer.occupancy == 10

    def test_occupancy_seconds(self):
        buffer = SampleRingBuffer(1536)
        buffer.write(512)
        assert buffer.occupancy_seconds(256.0) == pytest.approx(2.0)

    def test_free_tracks_capacity(self):
        buffer = SampleRingBuffer(10)
        buffer.write(3)
        assert buffer.free == 7

    def test_strict_overflow_raises(self):
        buffer = SampleRingBuffer(10, strict=True)
        buffer.write(8)
        with pytest.raises(BufferOverrunError):
            buffer.write(5)

    def test_strict_underrun_raises(self):
        buffer = SampleRingBuffer(10, strict=True)
        buffer.write(2)
        with pytest.raises(BufferUnderrunError):
            buffer.read(5)

    def test_lenient_overflow_drops_and_counts(self):
        buffer = SampleRingBuffer(10, strict=False)
        buffer.write(8)
        accepted = buffer.write(5)
        assert accepted == 2
        assert buffer.overruns == 1
        assert buffer.occupancy == 10

    def test_lenient_underrun_partial_and_counts(self):
        buffer = SampleRingBuffer(10, strict=False)
        buffer.write(3)
        got = buffer.read(5)
        assert got == 3
        assert buffer.underruns == 1
        assert buffer.occupancy == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SampleRingBuffer(0)

    def test_negative_amounts_rejected(self):
        buffer = SampleRingBuffer(10)
        with pytest.raises(ValueError):
            buffer.write(-1)
        with pytest.raises(ValueError):
            buffer.read(-1)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            SampleRingBuffer(10).occupancy_seconds(0.0)


class TestStatistics:
    def test_max_occupancy_tracked(self):
        buffer = SampleRingBuffer(100)
        buffer.write(60)
        buffer.read(50)
        buffer.write(20)
        assert buffer.max_occupancy == 60

    def test_min_occupancy_starts_at_first_read(self):
        buffer = SampleRingBuffer(100)
        # the fill phase must not register as a minimum, and before the
        # consumer ever reads there is no steady-state minimum to report
        buffer.write(10)
        assert buffer.min_occupancy_after_start == 0
        buffer.read(5)
        assert buffer.min_occupancy_after_start == 5

    def test_min_occupancy_zero_sentinel_when_never_started(self):
        """Regression: a run whose display never starts must not report
        a full buffer as its minimum occupancy."""
        buffer = SampleRingBuffer(100)
        buffer.write(60)
        buffer.write(30)
        assert buffer.min_occupancy_after_start == 0
        assert buffer.min_occupancy_after_start == int(
            buffer.min_occupancy_after_start
        )  # NaN-free integer sentinel

    def test_totals(self):
        buffer = SampleRingBuffer(100)
        buffer.write(30)
        buffer.read(10)
        buffer.write(5)
        assert buffer.total_written == 35
        assert buffer.total_read == 10


class TestInvariantProperties:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["w", "r"]), st.integers(0, 50)),
            max_size=60,
        )
    )
    def test_occupancy_invariants(self, operations):
        """0 <= occupancy <= capacity, conservation of samples."""
        buffer = SampleRingBuffer(64, strict=False)
        for op, amount in operations:
            if op == "w":
                buffer.write(amount)
            else:
                buffer.read(amount)
            assert 0 <= buffer.occupancy <= buffer.capacity
        assert buffer.total_written - buffer.total_read == buffer.occupancy
