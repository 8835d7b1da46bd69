"""Tests for the firmware memory-footprint model."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import MemoryBudgetError
from repro.platforms import MemoryMap, MemoryRegion, encoder_memory_map
from repro.platforms.memory import MSP430_FLASH_BYTES, MSP430_RAM_BYTES


class TestPaperFootprint:
    """The published 6.5 kB RAM / 7.5 kB flash figures."""

    def test_ram_is_6_5_kb(self, paper_config):
        memory = encoder_memory_map(paper_config)
        assert memory.ram_bytes() == 6656  # 6.5 kB exactly

    def test_flash_is_7_5_kb(self, paper_config):
        memory = encoder_memory_map(paper_config)
        assert memory.flash_bytes() == pytest.approx(7680, abs=200)

    def test_huffman_tables_are_1_5_kb(self, paper_config):
        memory = encoder_memory_map(paper_config)
        huffman = sum(
            e.size_bytes for e in memory.entries if "huffman" in e.name
        )
        assert huffman == 1536

    def test_fits_msp430(self, paper_config):
        memory = encoder_memory_map(paper_config)
        assert memory.fits()

    def test_stored_gaussian_blows_flash(self, paper_config):
        """Approach 2 needs m*n*4 B = 512 kB >> 48 kB flash."""
        memory = encoder_memory_map(paper_config, store_gaussian_matrix=True)
        assert not memory.fits()

    def test_stored_indices_still_fit_flash(self, paper_config):
        """Storing the 6 kB row-index table would fit flash (48 kB) but
        contradicts the paper's published 7.5 kB figure."""
        memory = encoder_memory_map(paper_config, store_sparse_indices=True)
        assert memory.fits()
        assert memory.flash_bytes() > 12_000


class TestMemoryMapMechanics:
    def test_budgets(self):
        assert MSP430_RAM_BYTES == 10240
        assert MSP430_FLASH_BYTES == 49152

    def test_add_and_totals(self):
        memory = MemoryMap(ram_budget_bytes=100, flash_budget_bytes=100)
        memory.add("a", 60, MemoryRegion.RAM)
        memory.add("b", 30, MemoryRegion.FLASH)
        assert memory.ram_bytes() == 60
        assert memory.flash_bytes() == 30
        assert memory.fits()

    def test_ram_overflow_detected(self):
        memory = MemoryMap(ram_budget_bytes=10, flash_budget_bytes=100)
        memory.add("big", 11, MemoryRegion.RAM)
        assert not memory.fits()

    def test_negative_allocation_rejected(self):
        memory = MemoryMap(ram_budget_bytes=10, flash_budget_bytes=10)
        with pytest.raises(MemoryBudgetError):
            memory.add("bad", -1, MemoryRegion.RAM)

    def test_render_contains_totals(self, paper_config):
        text = encoder_memory_map(paper_config).render()
        assert "TOTAL RAM" in text
        assert "TOTAL FLASH" in text
        assert "huffman codewords" in text

    def test_ram_scales_with_m(self, paper_config):
        small = encoder_memory_map(paper_config.replace(m=64))
        large = encoder_memory_map(paper_config.replace(m=512, d=12))
        assert small.ram_bytes() < large.ram_bytes()
