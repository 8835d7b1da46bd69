"""Adaptive batch control: AIMD on the gateway's flush operating point.

The gateway's two knobs — target batch width and flush-on-idle
deadline — used to be fixed for the life of a ``serve``, yet the right
values depend on load: under a burst, wide solves amortize per-flush
overhead and drain the backlog fastest, while near the paper's
2-second end-to-end budget a wide in-flight solve is exactly the
head-of-line blocking that makes the *next* windows miss.  The
:class:`AdaptiveBatchController` closes that loop from the telemetry
plane's signals:

- **additive increase** — while there is a backlog deeper than the
  current width (demand) *and* the solve-latency percentile of recent
  flushes leaves headroom against the budget, widen (doubling while
  the backlog is much deeper — the slow-start analogue).  A candidate
  width is admitted only if the controller's running fit of solve
  time vs width predicts its solve still fits the headroom, so the
  loop converges on the widest batch the budget can absorb instead of
  overshooting and missing wholesale;
- **multiplicative decrease** — when a single solve consumed the shed
  fraction of the budget outright (a width that eats the budget in
  one flush head-of-line blocks everything behind it), halve the
  width and tighten the flush deadline so pending windows get out in
  smaller, faster solves;
- **pressure flush** — a latency-model rule on top of the batch-full /
  deadline / drain triggers: flush *now* if waiting any longer would,
  per the model, push the oldest pending window past the budget (and
  the window is still salvageable — a hopeless backlog is left to the
  full/deadline triggers rather than thrashing the operating point).
  This converts the budget from a hope into a scheduling constraint:
  it is what recovers the "last partial batch" a fixed gateway wastes
  waiting on a deadline the budget cannot afford.

Stability at the configured operating point is a hard design rule:
with no backlog and no budget threat, every signal is in its dead
band, the effective width and deadline stay at the configured base
values, and the gateway's flush schedule is *identical* to a
non-adaptive run — which is what lets
``tests/ingest/test_adaptive.py::TestAdaptiveGateway`` pin
bit-identical steady-state output against fixed batching
(``benchmarks/bench_adaptive_batching.py`` pins the other side: the
controller beating every fixed width under bursty load).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..telemetry import NULL_METER, Meter


# The AIMD loop's fixed policy: deliberately conservative (widen
# slowly, shed hard, a wide dead band so steady-state traffic never
# oscillates the operating point), and constants because no bench or
# deployment ever ran a second value.

#: shed when one observed solve reaches this fraction of the budget (a
#: width that eats the budget in a single flush is head-of-line
#: blocking everything behind it)
SHED_FRACTION = 0.85
#: additive widen step (windows per observed flush)
WIDEN_STEP = 4
#: multiplicative shed factor for width and flush deadline
SHED_FACTOR = 0.5
#: hard bounds on the effective width: a factor of the base above, one
#: window below
MAX_BATCH_FACTOR = 8
MIN_BATCH = 1
#: floor of the effective flush deadline, as a factor of the base
MIN_FLUSH_FACTOR = 0.1
#: percentile of recent solve latencies steering the widen gate
PERCENTILE = 95.0
#: rolling window (flushes / windows) the percentiles are computed over
LATENCY_WINDOW = 128


@dataclass(frozen=True)
class AdaptiveConfig:
    """What a deployment tunes of the AIMD loop: the budget and the two
    margins inside it (the rest of the policy is the module constants
    above)."""

    #: end-to-end per-window latency budget (the paper's 2 s window)
    budget_s: float = 2.0
    #: widen only while the recent solve-latency percentile — and the
    #: model's prediction for the candidate width — stay below this
    #: fraction of the budget.  The implied convergence point is the
    #: widest batch whose solve fits the headroom.
    headroom_fraction: float = 0.5
    #: safety margin subtracted from the budget in the pressure rule
    safety_s: float = 0.1

    def __post_init__(self) -> None:
        if self.budget_s <= 0:
            raise ConfigurationError(
                f"budget_s must be positive, got {self.budget_s}"
            )
        if not 0.0 < self.headroom_fraction < SHED_FRACTION:
            raise ConfigurationError(
                "need 0 < headroom_fraction < the shed fraction "
                f"{SHED_FRACTION}, got {self.headroom_fraction}"
            )


class SolveTimeModel:
    """Running affine fit ``solve_s ~ overhead + per_window * width``.

    Fed every observed ``(width, seconds)`` flush; the two parameters
    are recovered by least squares over a bounded window of the most
    recent flushes (older samples simply age out of the deque), so
    the model tracks the machine it runs on (BLAS width efficiency
    included) without any offline calibration.  Until two distinct
    widths have been seen the fit degenerates to a zero intercept and
    the mean per-window rate.
    """

    def __init__(self, history: int = 64) -> None:
        self._samples: deque[tuple[float, float]] = deque(maxlen=history)

    def observe(self, width: int, seconds: float) -> None:
        if width >= 1 and seconds >= 0.0:
            self._samples.append((float(width), float(seconds)))

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def parameters(self) -> tuple[float, float]:
        """``(overhead_s, per_window_s)``; zeros before any data."""
        if not self._samples:
            return 0.0, 0.0
        n = len(self._samples)
        sw = sum(w for w, _ in self._samples)
        ss = sum(s for _, s in self._samples)
        if n < 2:
            return 0.0, ss / sw
        sww = sum(w * w for w, _ in self._samples)
        sws = sum(w * s for w, s in self._samples)
        denominator = n * sww - sw * sw
        if denominator <= 1e-12:  # one distinct width so far
            return 0.0, ss / sw
        slope = (n * sws - sw * ss) / denominator
        intercept = (ss - slope * sw) / n
        # a physical solve has non-negative cost per window and per
        # flush; clamp fit noise instead of predicting negative time
        slope = max(slope, 0.0)
        intercept = max(intercept, 0.0)
        return intercept, slope

    def predict(self, width: int) -> float:
        """Expected solve seconds of a ``width``-wide flush."""
        overhead, per_window = self.parameters()
        return overhead + per_window * max(width, 0)


class AdaptiveBatchController:
    """The AIMD state machine steering one gateway's flush loop.

    Parameters
    ----------
    base_batch:
        The configured target width — the fixed-batch operating point
        the controller returns to when no signal says otherwise.
    base_flush_s:
        The configured flush-on-idle deadline, likewise the resting
        value.
    config:
        :class:`AdaptiveConfig` (budget, headroom, safety margin).
    meter:
        Telemetry meter publishing the controller's state (effective
        width/deadline gauges, widen/shed counters) — the plane both
        feeds and observes the loop.
    """

    def __init__(
        self,
        base_batch: int,
        base_flush_s: float,
        config: AdaptiveConfig | None = None,
        meter: Meter = NULL_METER,
    ) -> None:
        if base_batch < 1:
            raise ConfigurationError(
                f"base_batch must be >= 1, got {base_batch}"
            )
        if base_flush_s <= 0:
            raise ConfigurationError(
                f"base_flush_s must be positive, got {base_flush_s}"
            )
        self.config = config or AdaptiveConfig()
        self.base_batch = base_batch
        self.base_flush_s = base_flush_s
        self.max_batch = base_batch * MAX_BATCH_FACTOR
        self.min_flush_s = base_flush_s * MIN_FLUSH_FACTOR
        self.effective_batch = base_batch
        self.effective_flush_s = base_flush_s
        self.model = SolveTimeModel()
        self.widen_count = 0
        self.shed_count = 0
        self._recent_latency: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._recent_solves: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._meter = meter
        self._publish()

    # ------------------------------------------------------------------
    # signals in
    # ------------------------------------------------------------------
    def record_latency(self, latency_s: float) -> None:
        """Feed one decoded window's end-to-end latency (observed in
        telemetry and exposed through :meth:`latency_percentile`; the
        AIMD step itself steers on *solve* latency, which attributes
        to the width knob instead of to upstream queueing)."""
        self._recent_latency.append(float(latency_s))

    @staticmethod
    def _percentile(samples: deque, q: float) -> float:
        if not samples:
            return 0.0
        ordered = sorted(samples)
        rank = q / 100.0 * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

    def latency_percentile(self) -> float:
        """Steering percentile of recent end-to-end window latencies."""
        return self._percentile(self._recent_latency, PERCENTILE)

    def solve_percentile(self) -> float:
        """Steering percentile of recent per-flush solve latencies."""
        return self._percentile(self._recent_solves, PERCENTILE)

    def _headroom_cap(self) -> int:
        """Widest batch whose predicted solve fits the headroom."""
        overhead, per_window = self.model.parameters()
        limit = self.config.headroom_fraction * self.config.budget_s
        if per_window <= 0.0:
            return self.max_batch
        return max(MIN_BATCH, int((limit - overhead) / per_window))

    def observe_flush(
        self,
        width: int,
        solve_seconds: float,
        backlog: int,
        reason: str,
    ) -> None:
        """One flush completed: update the model, run the AIMD step.

        ``backlog`` is the group's pending depth *after* the flush —
        the demand signal; ``reason`` is the flush trigger.  A routine
        ``"pressure"`` flush is the timing mechanism doing its job and
        does *not* shed the width (the width knob was not even binding
        on a partial flush); the shed signal is a solve that consumed
        the budget, which is attributable to the width alone.
        """
        self.model.observe(width, solve_seconds)
        self._recent_solves.append(float(solve_seconds))
        budget = self.config.budget_s
        headroom = self.config.headroom_fraction * budget
        threatened = solve_seconds >= SHED_FRACTION * budget
        if threatened:
            previous = (self.effective_batch, self.effective_flush_s)
            self.effective_batch = max(
                MIN_BATCH, int(self.effective_batch * SHED_FACTOR)
            )
            self.effective_flush_s = max(
                self.min_flush_s, self.effective_flush_s * SHED_FACTOR
            )
            if (self.effective_batch, self.effective_flush_s) != previous:
                self.shed_count += 1
                self._meter.inc("ingest_controller_shed")
        elif (
            backlog > self.effective_batch
            and self.solve_percentile() < headroom
        ):
            # demand and headroom: widen — doubling while the backlog
            # dwarfs the width (slow start), additively otherwise —
            # but never past the width the model says the headroom can
            # absorb in one solve
            if backlog >= 2 * self.effective_batch:
                candidate = 2 * self.effective_batch
            else:
                candidate = self.effective_batch + WIDEN_STEP
            widened = min(candidate, self.max_batch, self._headroom_cap())
            if widened > self.effective_batch:
                self.effective_batch = widened
                self.widen_count += 1
                self._meter.inc("ingest_controller_widen")
            # demand also relaxes a previously-tightened deadline back
            # toward (never past) the configured base
            self.effective_flush_s = min(
                self.base_flush_s, self.effective_flush_s * 2.0
            )
        else:
            # dead band: drift the deadline home; the width holds (an
            # idle lull must not erase what load taught us, and at the
            # base point this is exactly the fixed-batch schedule)
            self.effective_flush_s = min(
                self.base_flush_s, self.effective_flush_s * 1.5
            )
        self._publish()

    # ------------------------------------------------------------------
    # decisions out
    # ------------------------------------------------------------------
    def pressure_due_at(self, oldest_t_submit: float, depth: int) -> float:
        """Loop time at which the oldest pending window must flush.

        The latest moment a flush of the currently-plausible width can
        start and still land inside the budget, per the solve-time
        model.  Infinity until the model has data — the deadline
        trigger alone governs a cold start — and infinity when no
        flush could save the window anyway (hopeless backlogs belong
        to the full/deadline triggers; thrashing the operating point
        over windows that are already lost helps nobody).
        """
        if self.model.sample_count == 0:
            return float("inf")
        width = min(max(depth, 1), self.effective_batch)
        slack = (
            self.config.budget_s
            - self.config.safety_s
            - self.model.predict(width)
        )
        if slack <= 0.0:
            return float("inf")
        return oldest_t_submit + slack

    def _publish(self) -> None:
        self._meter.set_gauge("ingest_effective_batch", self.effective_batch)
        self._meter.set_gauge(
            "ingest_effective_flush_ms", 1000.0 * self.effective_flush_s
        )

    @property
    def at_base_point(self) -> bool:
        """Whether the operating point equals the configured base."""
        return (
            self.effective_batch == self.base_batch
            and self.effective_flush_s == self.base_flush_s
        )


class FixedBatchController:
    """The null controller: the configured point, forever.

    Gives the gateway one code path for both modes — the fixed
    gateway is simply an adaptive gateway whose controller never
    moves and never raises pressure flushes.
    """

    def __init__(self, base_batch: int, base_flush_s: float) -> None:
        self.base_batch = base_batch
        self.base_flush_s = base_flush_s
        self.effective_batch = base_batch
        self.effective_flush_s = base_flush_s
        self.widen_count = 0
        self.shed_count = 0

    def record_latency(self, latency_s: float) -> None:
        pass

    def observe_flush(
        self, width: int, solve_seconds: float, backlog: int, reason: str
    ) -> None:
        pass

    def pressure_due_at(self, oldest_t_submit: float, depth: int) -> float:
        return float("inf")

    @property
    def at_base_point(self) -> bool:
        return True


__all__ = [
    "AdaptiveBatchController",
    "AdaptiveConfig",
    "FixedBatchController",
    "SolveTimeModel",
]
