"""Firmware memory-footprint accounting (RAM and flash).

Reproduces the paper's budget: "The complete CS implementation requires
6.5 kB of RAM and 7.5 kB of Flash, 1.5 kB of which are for Huffman
codebook storage", against the MSP430F1611's 10 kB RAM / 48 kB flash.

The row-index table of the sparse binary matrix (N*d indices) is *not*
stored: the firmware regenerates it per packet from the shared PRNG
seed (see :func:`repro.platforms.kernels.sparse_sensing_counts`), which
is the only layout consistent with the paper's 7.5 kB flash figure.
The rejected stored-Gaussian approach is also mapped, to show it
violates the budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..config import SystemConfig
from ..errors import MemoryBudgetError


class MemoryRegion(enum.Enum):
    """Target memory region of an allocation."""

    RAM = "ram"
    FLASH = "flash"


@dataclass(frozen=True)
class MemoryEntry:
    """One named allocation."""

    name: str
    size_bytes: int
    region: MemoryRegion

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise MemoryBudgetError(
                f"allocation {self.name!r} has negative size {self.size_bytes}"
            )


@dataclass
class MemoryMap:
    """A set of allocations checked against a device budget."""

    ram_budget_bytes: int
    flash_budget_bytes: int
    entries: list[MemoryEntry] = field(default_factory=list)

    def add(self, name: str, size_bytes: int, region: MemoryRegion) -> None:
        """Add one allocation."""
        self.entries.append(MemoryEntry(name, int(size_bytes), region))

    def ram_bytes(self) -> int:
        """Total RAM usage."""
        return sum(
            e.size_bytes for e in self.entries if e.region is MemoryRegion.RAM
        )

    def flash_bytes(self) -> int:
        """Total flash usage."""
        return sum(
            e.size_bytes for e in self.entries if e.region is MemoryRegion.FLASH
        )

    def fits(self) -> bool:
        """Whether both regions fit their budgets."""
        return (
            self.ram_bytes() <= self.ram_budget_bytes
            and self.flash_bytes() <= self.flash_budget_bytes
        )

    def render(self) -> str:
        """Fixed-width textual map for reports."""
        lines = [f"{'allocation':<28} {'region':<6} {'bytes':>8}"]
        for entry in sorted(self.entries, key=lambda e: (e.region.value, -e.size_bytes)):
            lines.append(
                f"{entry.name:<28} {entry.region.value:<6} {entry.size_bytes:>8}"
            )
        lines.append(
            f"{'TOTAL RAM':<28} {'ram':<6} {self.ram_bytes():>8}"
            f"  (budget {self.ram_budget_bytes})"
        )
        lines.append(
            f"{'TOTAL FLASH':<28} {'flash':<6} {self.flash_bytes():>8}"
            f"  (budget {self.flash_budget_bytes})"
        )
        return "\n".join(lines)


#: MSP430F1611 memory budgets.
MSP430_RAM_BYTES = 10 * 1024
MSP430_FLASH_BYTES = 48 * 1024

#: Estimated code size of the compiled encoder (three stages, drivers).
ENCODER_CODE_BYTES = 4576
#: Miscellaneous flash constants (PRNG parameters, calibration, vectors).
ENCODER_CONST_BYTES = 1408


def encoder_memory_map(
    config: SystemConfig,
    store_sparse_indices: bool = False,
    store_gaussian_matrix: bool = False,
) -> MemoryMap:
    """Build the node-side memory map for a configuration.

    With the defaults (regenerated indices, no Gaussian matrix) and the
    paper's N=512 / M=256 operating point this reproduces the published
    6.5 kB RAM / 7.5 kB flash footprint.
    """
    memory = MemoryMap(
        ram_budget_bytes=MSP430_RAM_BYTES, flash_budget_bytes=MSP430_FLASH_BYTES
    )
    # RAM: double sample buffer (acquire one packet while encoding the
    # previous), 32-bit accumulators, quantized/reference/diff vectors,
    # the outgoing bitstream buffer, stack + OS.
    memory.add("sample double buffer", 2 * 2 * config.n, MemoryRegion.RAM)
    memory.add("measurement accumulators", 4 * config.m, MemoryRegion.RAM)
    memory.add("quantized measurements", 2 * config.m, MemoryRegion.RAM)
    memory.add("reference vector", 2 * config.m, MemoryRegion.RAM)
    memory.add("difference vector", 2 * config.m, MemoryRegion.RAM)
    memory.add("bitstream buffer", 1024, MemoryRegion.RAM)
    memory.add("stack + tinyos", 1024, MemoryRegion.RAM)

    # FLASH: code, the Huffman codebook (1 kB codewords + 512 B lengths),
    # constants.
    memory.add("encoder code", ENCODER_CODE_BYTES, MemoryRegion.FLASH)
    memory.add("huffman codewords", 1024, MemoryRegion.FLASH)
    memory.add("huffman lengths", 512, MemoryRegion.FLASH)
    memory.add("constants + prng", ENCODER_CONST_BYTES, MemoryRegion.FLASH)

    if store_sparse_indices:
        index_bits = max(8, (config.m - 1).bit_length())
        index_bytes = (index_bits + 7) // 8
        memory.add(
            "sparse row-index table",
            config.n * config.d * index_bytes,
            MemoryRegion.FLASH,
        )
    if store_gaussian_matrix:
        memory.add(
            "dense gaussian matrix (f32)",
            4 * config.m * config.n,
            MemoryRegion.FLASH,
        )
    return memory
