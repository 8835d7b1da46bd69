"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            errors.ConfigurationError,
            errors.CodingError,
            errors.BitstreamError,
            errors.CodebookError,
            errors.DecodingError,
            errors.SensingError,
            errors.SolverError,
            errors.PlatformModelError,
            errors.MemoryBudgetError,
            errors.RealTimeError,
            errors.BufferOverrunError,
            errors.BufferUnderrunError,
            errors.PacketFormatError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, errors.ReproError)

    def test_value_error_compat(self):
        """Config/sensing errors double as ValueError for ergonomics."""
        assert issubclass(errors.ConfigurationError, ValueError)
        assert issubclass(errors.SensingError, ValueError)
        assert issubclass(errors.PlatformModelError, ValueError)

    def test_coding_family(self):
        assert issubclass(errors.BitstreamError, errors.CodingError)
        assert issubclass(errors.CodebookError, errors.CodingError)
        assert issubclass(errors.DecodingError, errors.CodingError)

    def test_buffer_family(self):
        assert issubclass(errors.BufferOverrunError, errors.RealTimeError)
        assert issubclass(errors.BufferUnderrunError, errors.RealTimeError)

    def test_memory_budget_is_platform_error(self):
        assert issubclass(errors.MemoryBudgetError, errors.PlatformModelError)

    def test_single_catch_all(self):
        try:
            raise errors.PacketFormatError("boom")
        except errors.ReproError as exc:
            assert "boom" in str(exc)
