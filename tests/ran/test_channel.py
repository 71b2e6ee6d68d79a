"""Tests for the CQI/MCS channel model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ran.channel import (
    CQI_TABLE,
    ChannelModel,
    cqi_for_snr,
    efficiency_for_cqi,
    throughput_per_prb_mbps,
)


class TestCqiTable:
    def test_sixteen_entries(self):
        assert len(CQI_TABLE) == 16

    def test_efficiency_monotone(self):
        effs = [entry.efficiency for entry in CQI_TABLE]
        assert effs == sorted(effs)

    def test_known_values(self):
        assert efficiency_for_cqi(15) == pytest.approx(5.5547)
        assert efficiency_for_cqi(1) == pytest.approx(0.1523)
        assert efficiency_for_cqi(0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            efficiency_for_cqi(16)
        with pytest.raises(ValueError):
            efficiency_for_cqi(-1)

    def test_modulation_progression(self):
        assert CQI_TABLE[1].modulation == "QPSK"
        assert CQI_TABLE[7].modulation == "16QAM"
        assert CQI_TABLE[15].modulation == "64QAM"


class TestSnrMapping:
    def test_deep_fade_gives_zero(self):
        assert cqi_for_snr(-20.0) == 0

    def test_high_snr_caps_at_15(self):
        assert cqi_for_snr(40.0) == 15

    def test_monotone_in_snr(self):
        snrs = np.linspace(-10, 30, 50)
        cqis = [cqi_for_snr(s) for s in snrs]
        assert cqis == sorted(cqis)


class TestThroughputPerPrb:
    def test_cqi15_near_peak(self):
        # 5.5547 b/RE × 168 RE/ms × 0.75 ≈ 0.70 Mb/s.
        assert throughput_per_prb_mbps(15) == pytest.approx(0.6999, abs=0.01)

    def test_cqi0_is_zero(self):
        assert throughput_per_prb_mbps(0) == 0.0

    def test_overhead_scales_linearly(self):
        full = throughput_per_prb_mbps(10, overhead=0.0)
        half = throughput_per_prb_mbps(10, overhead=0.5)
        assert half == pytest.approx(full / 2)

    def test_bad_overhead_rejected(self):
        with pytest.raises(ValueError):
            throughput_per_prb_mbps(10, overhead=1.0)

    def test_cell_capacity_sanity(self):
        """100 PRBs at CQI 15 ≈ 70 Mb/s — the right order for 20 MHz SISO."""
        assert 60 < 100 * throughput_per_prb_mbps(15) < 80


class TestChannelModel:
    def test_expected_cqi(self):
        model = ChannelModel(mean_snr_db=12.0)
        assert model.cqi() == cqi_for_snr(12.0)
