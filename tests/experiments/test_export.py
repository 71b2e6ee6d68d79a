"""Tests for the dashboard's sparkline (the one export helper still called)."""

from __future__ import annotations

import pytest

from repro.dashboard.reports import sparkline


class TestSparkline:
    def test_monotone_series(self):
        line = sparkline([1, 2, 3, 4, 5])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 5

    def test_flat_series(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_resampled_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_empty(self):
        assert sparkline([]) == ""

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)
