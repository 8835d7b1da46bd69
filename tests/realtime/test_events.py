"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import RealTimeError
from repro.realtime import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule_at(2.0, lambda s: log.append("b"))
        sim.schedule_at(1.0, lambda s: log.append("a"))
        sim.schedule_at(3.0, lambda s: log.append("c"))
        sim.run_until(10.0)
        assert log == ["a", "b", "c"]

    def test_ties_break_in_insertion_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule_at(1.0, lambda s, n=name: log.append(n))
        sim.run_until(2.0)
        assert log == ["a", "b", "c"]

    def test_relative_schedule(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda s: times.append(s.now))
        sim.run_until(1.0)
        assert times == [0.5]

    def test_clock_advances_to_end(self):
        sim = Simulator()
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_actions_can_schedule_more(self):
        sim = Simulator()
        log = []

        def chain(s):
            log.append(s.now)
            if len(log) < 3:
                s.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run_until(10.0)
        assert log == [1.0, 2.0, 3.0]

    def test_events_after_horizon_not_run(self):
        sim = Simulator()
        log = []
        sim.schedule_at(5.0, lambda s: log.append("late"))
        sim.run_until(4.0)
        assert log == []

    def test_periodic(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(1.0, lambda s: ticks.append(s.now), start=1.0)
        sim.run_until(4.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_past_schedule_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(RealTimeError):
            sim.schedule_at(1.0, lambda s: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(RealTimeError):
            Simulator().schedule(-1.0, lambda s: None)

    def test_invalid_period_rejected(self):
        with pytest.raises(RealTimeError):
            Simulator().schedule_every(0.0, lambda s: None)

    def test_backwards_run_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(RealTimeError):
            sim.run_until(1.0)

    def test_runaway_guard(self):
        sim = Simulator()

        def storm(s):
            s.schedule(0.0, storm)

        sim.schedule(0.0, storm)
        with pytest.raises(RealTimeError):
            sim.run_until(1.0, max_events=1000)
