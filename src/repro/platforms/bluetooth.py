"""Bluetooth link model of the Shimmer -> coordinator hop.

The Shimmer carries a class-2 Bluetooth module driven over a UART.  The
model works at the link-budget level: an effective application
throughput, a transmit power draw, and an idle (connected/sniff) draw.
Airtime per packet and average radio power then follow from the packet
sizes the encoder actually produces — which is how embedded ECG
compression converts saved bits into saved energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PlatformModelError


@dataclass(frozen=True)
class BluetoothLink:
    """Effective-throughput Bluetooth serial link."""

    #: effective application throughput; BT 2.0 SPP with small packets
    #: delivers well below the 115.2 kbps UART ceiling
    throughput_bps: float = 60_000.0
    #: radio + module power while transmitting
    tx_power_mw: float = 90.0
    #: module power while connected but idle (sniff mode)
    idle_power_mw: float = 3.0

    def __post_init__(self) -> None:
        if self.throughput_bps <= 0:
            raise PlatformModelError(
                f"throughput_bps must be positive, got {self.throughput_bps}"
            )
        if self.tx_power_mw < 0 or self.idle_power_mw < 0:
            raise PlatformModelError("powers must be non-negative")

    # ------------------------------------------------------------------
    def airtime_s(self, bits: float) -> float:
        """Transmit time for a payload of ``bits``."""
        if bits < 0:
            raise PlatformModelError(f"bits must be >= 0, got {bits}")
        return bits / self.throughput_bps

    def average_power_mw(self, bits_per_second: float) -> float:
        """Average radio power for a sustained bit rate (idle + TX duty)."""
        if bits_per_second < 0:
            raise PlatformModelError(
                f"bits_per_second must be >= 0, got {bits_per_second}"
            )
        duty = min(1.0, bits_per_second / self.throughput_bps)
        return self.idle_power_mw + duty * (self.tx_power_mw - self.idle_power_mw)
