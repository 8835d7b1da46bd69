"""The full monitor pipeline as a discrete-event model (Figure 8).

Entities and their timing sources:

- **sampler** — emits one N-sample window every packet period (the ADC
  runs in hardware; its CPU cost is inside the node base power);
- **encoder task** (node CPU) — busy for the MSP430-modeled encode time;
- **Bluetooth link** — serialized resource, airtime from the link model
  and the packet's actual bit count;
- **decoder task** (phone CPU) — busy for the Cortex-A8-modeled decode
  time of that packet's FISTA iteration count;
- **display task** (phone CPU) — wakes every 15 ms, draws 4 pixels,
  consumes samples from the shared ring buffer (Bresenham-style
  fractional accumulation keeps the 256 Hz consumption exact);
- **ring buffer** — 6 seconds of samples, per the paper's sizing.

Per-packet iteration counts come from the *actual* solver runs on real
data (the Fig 8 experiment feeds them in), so the simulation couples the
numerical behavior with the platform timing models.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..config import SystemConfig
from ..errors import RealTimeError
from ..platforms.bluetooth import BluetoothLink
from ..platforms.cortexa8 import DecodePipeline
from ..platforms.iphone import IPhoneModel
from ..platforms.msp430 import Msp430Model
from .buffers import SampleRingBuffer
from .events import Simulator


class Processor:
    """A single-threaded CPU: jobs serialize, busy time accumulates."""

    def __init__(self) -> None:
        self._free_at = 0.0
        self.busy_seconds = 0.0
        self.jobs = 0

    def submit(self, now: float, duration: float) -> float:
        """Enqueue a job at ``now``; returns its completion time."""
        if duration < 0:
            raise RealTimeError(f"duration must be >= 0, got {duration}")
        start = max(now, self._free_at)
        self._free_at = start + duration
        self.busy_seconds += duration
        self.jobs += 1
        return self._free_at

    def utilization(self, elapsed: float) -> float:
        """Busy fraction over an elapsed interval.

        Deliberately *not* clamped to 1.0: submitted work is counted in
        full, so a value above 1 means the CPU was handed more work than
        the interval holds — the overload signal a real-time report must
        surface rather than hide.
        """
        if elapsed <= 0:
            raise RealTimeError(f"elapsed must be positive, got {elapsed}")
        return self.busy_seconds / elapsed


@dataclass(frozen=True)
class PipelineConfig:
    """Static parameters of one pipeline run."""

    system: SystemConfig
    #: measured bit size of each packet, cyclically indexed
    packet_bits: Sequence[int]
    #: measured FISTA iteration count of each packet, cyclically indexed
    packet_iterations: Sequence[int]
    duration_s: float = 60.0
    decode_pipeline: DecodePipeline = DecodePipeline.NEON_OPTIMIZED
    buffer_seconds: float = 6.0
    #: display starts once this much signal is buffered; the paper's
    #: 6-second sizing implies 2 s of deliberate display latency on top
    #: of the 2 s read + 2 s write windows, i.e. start at 4 s buffered
    display_start_threshold_s: float = 4.0

    def __post_init__(self) -> None:
        if not self.packet_bits or not self.packet_iterations:
            raise RealTimeError("packet_bits and packet_iterations must be non-empty")
        if self.duration_s <= 0:
            raise RealTimeError(f"duration_s must be positive, got {self.duration_s}")
        if self.buffer_seconds <= 0:
            raise RealTimeError(
                f"buffer_seconds must be positive, got {self.buffer_seconds}"
            )


@dataclass
class PipelineReport:
    """Outcome of one simulated run."""

    duration_s: float
    packets_encoded: int
    packets_decoded: int
    node_cpu_percent: float
    phone_cpu_percent: float
    phone_decode_percent: float
    phone_display_percent: float
    radio_utilization_percent: float
    buffer_min_s: float
    buffer_max_s: float
    underruns: int
    overruns: int
    decode_deadline_misses: int
    mean_end_to_end_latency_s: float
    per_packet_latency_s: list[float] = field(default_factory=list)

    def is_realtime(self) -> bool:
        """No glitches and no decode deadline misses."""
        return (
            self.underruns == 0
            and self.overruns == 0
            and self.decode_deadline_misses == 0
        )


class MonitorPipeline:
    """Wire the entities together and run the simulation."""

    def __init__(
        self,
        config: PipelineConfig,
        node_model: Msp430Model | None = None,
        phone_model: IPhoneModel | None = None,
        radio: BluetoothLink | None = None,
    ) -> None:
        self.config = config
        self.node_model = node_model if node_model is not None else Msp430Model()
        self.phone_model = phone_model if phone_model is not None else IPhoneModel()
        self.radio = radio if radio is not None else BluetoothLink()

    # ------------------------------------------------------------------
    def run(self) -> PipelineReport:
        """Execute the pipeline for the configured duration."""
        cfg = self.config
        system = cfg.system
        sim = Simulator()
        node_cpu = Processor()
        phone_cpu = Processor()
        buffer = SampleRingBuffer(
            int(round(cfg.buffer_seconds * system.sample_rate_hz)), strict=False
        )

        period = system.packet_seconds
        encode_time = self.node_model.encode_packet_time_s(system)

        state = {
            "encoded": 0,
            "decoded": 0,
            "radio_busy": 0.0,
            "radio_free_at": 0.0,
            "display_started": False,
            "display_busy": 0.0,
            "deadline_misses": 0,
            "latencies": [],
            "pixel_residue": 0.0,
        }

        def packet_index() -> int:
            return state["encoded"] - 1

        def on_window_ready(s: Simulator) -> None:
            # window index state['encoded'] finished sampling at s.now
            state["encoded"] += 1
            done = node_cpu.submit(s.now, encode_time)
            index = packet_index()
            s.schedule_at(done, lambda s2, i=index: on_encoded(s2, i))

        def on_encoded(s: Simulator, index: int) -> None:
            bits = cfg.packet_bits[index % len(cfg.packet_bits)]
            airtime = self.radio.airtime_s(bits)
            start = max(s.now, state["radio_free_at"])
            state["radio_free_at"] = start + airtime
            state["radio_busy"] += airtime
            s.schedule_at(
                start + airtime, lambda s2, i=index: on_received(s2, i)
            )

        def on_received(s: Simulator, index: int) -> None:
            iterations = cfg.packet_iterations[index % len(cfg.packet_iterations)]
            decode_time = self.phone_model.decode_time_s(
                system, iterations, cfg.decode_pipeline
            )
            done = phone_cpu.submit(s.now, decode_time)
            s.schedule_at(done, lambda s2, i=index: on_decoded(s2, i))

        def on_decoded(s: Simulator, index: int) -> None:
            state["decoded"] += 1
            buffer.write(system.n)
            # the window's last sample was acquired at (index+1)*period
            acquired = (index + 1) * period
            state["latencies"].append(s.now - acquired)
            # real-time deadline: decoding must keep up with production,
            # i.e. finish within one packet period of reception start
            if s.now - acquired > period:
                state["deadline_misses"] += 1
            if (
                not state["display_started"]
                and buffer.occupancy_seconds(system.sample_rate_hz)
                >= cfg.display_start_threshold_s
            ):
                state["display_started"] = True
                s.schedule(0.0, start_display)

        def start_display(s: Simulator) -> None:
            s.schedule_every(self.phone_model.display_period_s, on_display_wakeup)

        def on_display_wakeup(s: Simulator) -> None:
            phone_cpu.submit(s.now, self.phone_model.display_wakeup_cpu_s)
            state["display_busy"] += self.phone_model.display_wakeup_cpu_s
            exact = (
                system.sample_rate_hz * self.phone_model.display_period_s
                + state["pixel_residue"]
            )
            consume = int(exact)
            state["pixel_residue"] = exact - consume
            if consume > 0:
                buffer.read(consume)

        # first window is fully sampled one period after start, then periodic
        sim.schedule_every(period, on_window_ready, start=period)
        sim.run_until(cfg.duration_s)

        elapsed = cfg.duration_s
        display_percent = 100.0 * state["display_busy"] / elapsed
        phone_percent = 100.0 * phone_cpu.utilization(elapsed)
        # Decode share from the phone CPU's busy-time ledger: everything
        # the phone did that was not display work.  Computed from busy
        # seconds directly (not phone_percent - display_percent) so it
        # cannot go negative under rounding or overload.
        decode_busy = phone_cpu.busy_seconds - state["display_busy"]
        decode_percent = 100.0 * max(decode_busy, 0.0) / elapsed
        latencies = state["latencies"]
        return PipelineReport(
            duration_s=elapsed,
            packets_encoded=state["encoded"],
            packets_decoded=state["decoded"],
            node_cpu_percent=100.0 * node_cpu.utilization(elapsed),
            phone_cpu_percent=phone_percent,
            phone_decode_percent=decode_percent,
            phone_display_percent=display_percent,
            radio_utilization_percent=100.0 * state["radio_busy"] / elapsed,
            buffer_min_s=buffer.min_occupancy_after_start / system.sample_rate_hz,
            buffer_max_s=buffer.max_occupancy / system.sample_rate_hz,
            underruns=buffer.underruns,
            overruns=buffer.overruns,
            decode_deadline_misses=state["deadline_misses"],
            mean_end_to_end_latency_s=(
                float(sum(latencies) / len(latencies)) if latencies else 0.0
            ),
            per_packet_latency_s=list(latencies),
        )
