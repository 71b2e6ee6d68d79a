"""Tests for trace-driven profiles and the synthetic city generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traffic.patterns import SECONDS_PER_DAY
from repro.traffic.traces import SyntheticCityTrace, TraceProfile


class TestTraceProfile:
    def test_replays_samples(self):
        profile = TraceProfile(10.0, [0.1, 0.5, 1.0], sample_period_s=100.0)
        assert profile.fraction(0.0) == 0.1
        assert profile.fraction(150.0) == 0.5
        assert profile.fraction(250.0) == 1.0

    def test_wrap(self):
        profile = TraceProfile(10.0, [0.1, 0.9], sample_period_s=100.0, wrap=True)
        assert profile.fraction(200.0) == 0.1
        assert profile.fraction(350.0) == 0.9

    def test_hold_last_without_wrap(self):
        profile = TraceProfile(10.0, [0.1, 0.9], sample_period_s=100.0, wrap=False)
        assert profile.fraction(10_000.0) == 0.9

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceProfile(10.0, [])

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            TraceProfile(10.0, [0.5, -0.1])

    def test_nan_sample_rejected(self):
        with pytest.raises(ValueError):
            TraceProfile(10.0, [0.5, float("nan")])

    def test_demand_scales(self):
        profile = TraceProfile(20.0, [0.5], noise_std=0.0)
        assert profile.demand(0.0) == pytest.approx(10.0)


class TestSyntheticCityTrace:
    def test_trace_length(self):
        trace = SyntheticCityTrace().generate(n_days=2, sample_period_s=600.0)
        assert trace.size == 2 * 144

    def test_deterministic_given_rng(self):
        a = SyntheticCityTrace().generate(rng=np.random.default_rng(1))
        b = SyntheticCityTrace().generate(rng=np.random.default_rng(1))
        assert np.allclose(a, b)

    def test_diurnal_cycle_dominates(self):
        """Autocorrelation at one day beats autocorrelation at half a day."""
        trace = SyntheticCityTrace(noise_sigma=0.05).generate(
            n_days=7, rng=np.random.default_rng(2)
        )
        day = 144

        def autocorr(lag):
            a, b = trace[:-lag], trace[lag:]
            return np.corrcoef(a, b)[0, 1]

        assert autocorr(day) > autocorr(day // 2)
        assert autocorr(day) > 0.5

    def test_weekend_damping(self):
        trace = SyntheticCityTrace(
            weekend_damping=0.5, noise_sigma=0.0, flash_probability=0.0
        ).generate(n_days=7, rng=np.random.default_rng(3))
        day = 144
        weekday_mean = trace[: 5 * day].mean()
        weekend_mean = trace[5 * day :].mean()
        assert weekend_mean < weekday_mean * 0.7

    def test_land_use_shifts_peak(self):
        rng = np.random.default_rng
        office = SyntheticCityTrace("office", noise_sigma=0.0, flash_probability=0.0)
        residential = SyntheticCityTrace(
            "residential", noise_sigma=0.0, flash_probability=0.0
        )
        day = 144
        office_peak = int(np.argmax(office.generate(1, rng=rng(0))[:day]))
        res_peak = int(np.argmax(residential.generate(1, rng=rng(0))[:day]))
        assert office_peak != res_peak
        # Office peaks around 14:00 (sample 84), residential around 21:00 (126).
        assert abs(office_peak - 84) <= 6
        assert abs(res_peak - 126) <= 6

    def test_flash_events_exceed_one(self):
        trace = SyntheticCityTrace(
            noise_sigma=0.0, flash_probability=0.1, flash_magnitude=1.8
        ).generate(n_days=2, rng=np.random.default_rng(4))
        assert trace.max() > 1.2

    def test_unknown_land_use_rejected(self):
        with pytest.raises(ValueError):
            SyntheticCityTrace("industrial")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            SyntheticCityTrace(weekend_damping=0.0)
        with pytest.raises(ValueError):
            SyntheticCityTrace(flash_magnitude=0.5)
        with pytest.raises(ValueError):
            SyntheticCityTrace(noise_sigma=-1.0)

    def test_profile_wraps_trace(self):
        profile = SyntheticCityTrace().profile(
            25.0, n_days=1, rng=np.random.default_rng(5)
        )
        assert isinstance(profile, TraceProfile)
        assert profile.peak_mbps == 25.0
        assert profile.samples.size * profile.sample_period_s == pytest.approx(SECONDS_PER_DAY)

    def test_forecastable_by_holt_winters(self):
        """The generated structure is learnable — HW beats naive on it."""
        from repro.core.forecasting import (
            HoltWintersForecaster,
            NaiveForecaster,
            evaluate_forecaster,
        )

        trace = SyntheticCityTrace(noise_sigma=0.1).generate(
            n_days=5, sample_period_s=1_800.0, rng=np.random.default_rng(6)
        )
        hw = evaluate_forecaster(HoltWintersForecaster(season_length=48), trace)
        naive = evaluate_forecaster(NaiveForecaster(), trace)
        assert hw["mae"] < naive["mae"]
