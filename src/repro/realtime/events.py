"""Minimal discrete-event simulation kernel.

A binary heap of timestamped events; ties break in scheduling order so
runs are fully deterministic.  Actions are plain callables receiving the
simulator, free to schedule further events.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import RealTimeError

Action = Callable[["Simulator"], None]


@dataclass(order=True)
class Event:
    """One scheduled event (ordered by time, then insertion order)."""

    time: float
    order: int
    action: Action = field(compare=False)


class Simulator:
    """Event queue + simulated clock."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    def schedule_at(self, time: float, action: Action) -> None:
        """Schedule an action at an absolute simulated time."""
        if time < self._now:
            raise RealTimeError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        heapq.heappush(self._queue, Event(time, next(self._counter), action))

    def schedule(self, delay: float, action: Action) -> None:
        """Schedule an action ``delay`` seconds from now."""
        if delay < 0:
            raise RealTimeError(f"delay must be >= 0, got {delay}")
        self.schedule_at(self._now + delay, action)

    def schedule_every(
        self, period: float, action: Action, start: float = 0.0
    ) -> None:
        """Schedule a periodic action (re-arms itself after each firing)."""
        if period <= 0:
            raise RealTimeError(f"period must be positive, got {period}")

        def fire(sim: "Simulator") -> None:
            action(sim)
            sim.schedule(period, fire)

        self.schedule_at(max(start, self._now), fire)

    # ------------------------------------------------------------------
    def run_until(self, end_time: float, max_events: int = 10_000_000) -> None:
        """Execute events in order until the clock reaches ``end_time``."""
        if end_time < self._now:
            raise RealTimeError(
                f"end_time {end_time} is before now {self._now}"
            )
        executed = 0
        while self._queue and self._queue[0].time <= end_time:
            event = heapq.heappop(self._queue)
            self._now = event.time
            event.action(self)
            executed += 1
            if executed > max_events:
                raise RealTimeError(
                    f"event budget exceeded ({max_events}); runaway schedule?"
                )
        self._now = end_time
