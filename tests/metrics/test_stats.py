"""Tests for sweep-point aggregation."""

from __future__ import annotations

import pytest

from repro.metrics import SweepPoint, aggregate_points


class TestAggregation:
    def _points(self):
        return [
            SweepPoint("100", 50.0, 10.0, 20.0, 600, 0.3),
            SweepPoint("101", 50.0, 20.0, 14.0, 800, 0.5),
        ]

    def test_means(self):
        aggregate = aggregate_points(self._points())
        assert aggregate["prd_percent"] == pytest.approx(15.0)
        assert aggregate["snr_db"] == pytest.approx(17.0)
        assert aggregate["iterations"] == pytest.approx(700.0)
        assert aggregate["decode_seconds"] == pytest.approx(0.4)
        assert aggregate["count"] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_points([])
