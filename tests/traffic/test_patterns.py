"""Tests for traffic demand profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.patterns import (
    SECONDS_PER_DAY,
    ConstantProfile,
    DiurnalProfile,
    OnOffProfile,
    SpikeProfile,
)


def mean_fraction(profile, horizon_s: float = SECONDS_PER_DAY, samples: int = 288) -> float:
    """Time-averaged fraction of peak over ``horizon_s`` (deterministic part)."""
    times = np.linspace(0.0, horizon_s, samples, endpoint=False)
    return float(np.mean([profile.fraction(float(t)) for t in times]))


class TestConstant:
    def test_flat_fraction(self):
        p = ConstantProfile(10.0, level=0.4)
        assert p.fraction(0.0) == 0.4
        assert p.fraction(1e6) == 0.4

    def test_demand_scales_by_peak(self):
        p = ConstantProfile(10.0, level=0.5, noise_std=0.0)
        assert p.demand(0.0) == pytest.approx(5.0)

    def test_noise_perturbs_but_never_negative(self, rng):
        p = ConstantProfile(10.0, level=0.1, noise_std=1.0)
        samples = [p.demand(0.0, rng) for _ in range(200)]
        assert all(s >= 0.0 for s in samples)
        assert np.std(samples) > 0

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            ConstantProfile(0.0)
        with pytest.raises(ValueError):
            ConstantProfile(10.0, level=2.0)
        with pytest.raises(ValueError):
            ConstantProfile(10.0, noise_std=-0.1)


class TestDiurnal:
    def test_peaks_once_per_period(self):
        p = DiurnalProfile(10.0, base=0.2, phase=0.0)
        fractions = [p.fraction(t) for t in np.linspace(0, SECONDS_PER_DAY, 200)]
        assert max(fractions) == pytest.approx(1.0, abs=0.01)
        assert min(fractions) == pytest.approx(0.2, abs=0.01)

    def test_phase_shifts_peak(self):
        base = DiurnalProfile(10.0, phase=0.0)
        shifted = DiurnalProfile(10.0, phase=0.5)
        # The peak of phase 0 is at half a day; phase 0.5 peaks at 0/full day.
        assert base.fraction(SECONDS_PER_DAY / 2) == pytest.approx(1.0)
        assert shifted.fraction(0.0) == pytest.approx(1.0)

    def test_periodicity(self):
        p = DiurnalProfile(10.0, phase=0.3)
        assert p.fraction(1_000.0) == pytest.approx(p.fraction(1_000.0 + SECONDS_PER_DAY))

    def test_mean_fraction_between_base_and_one(self):
        p = DiurnalProfile(10.0, base=0.2)
        mean = mean_fraction(p)
        assert 0.2 < mean < 1.0
        assert mean == pytest.approx(0.6, abs=0.05)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            DiurnalProfile(10.0, base=1.0)
        with pytest.raises(ValueError):
            DiurnalProfile(10.0, period_s=0.0)


class TestOnOff:
    def test_square_wave(self):
        p = OnOffProfile(10.0, on_fraction=0.25, period_s=100.0, floor=0.1)
        assert p.fraction(10.0) == 1.0
        assert p.fraction(30.0) == 0.1
        assert p.fraction(110.0) == 1.0  # next period

    def test_mean_fraction_matches_duty_cycle(self):
        p = OnOffProfile(10.0, on_fraction=0.3, period_s=3_600.0, floor=0.0)
        assert mean_fraction(p, horizon_s=36_000.0, samples=3_600) == pytest.approx(0.3, abs=0.02)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            OnOffProfile(10.0, on_fraction=0.0)
        with pytest.raises(ValueError):
            OnOffProfile(10.0, floor=1.5)


class TestSpike:
    def test_spike_then_baseline(self):
        p = SpikeProfile(10.0, baseline=0.1, spike_every_s=100.0, spike_duration_s=10.0)
        assert p.fraction(5.0) == 1.0
        assert p.fraction(50.0) == 0.1
        assert p.fraction(105.0) == 1.0

    def test_duration_must_be_shorter_than_interval(self):
        with pytest.raises(ValueError):
            SpikeProfile(10.0, spike_every_s=10.0, spike_duration_s=10.0)


@settings(max_examples=50, deadline=None)
@given(
    peak=st.floats(min_value=0.1, max_value=1e3),
    t=st.floats(min_value=0.0, max_value=1e7),
    base=st.floats(min_value=0.0, max_value=0.9),
)
def test_property_diurnal_fraction_bounded(peak, t, base):
    p = DiurnalProfile(peak, base=base)
    fraction = p.fraction(t)
    assert base - 1e-9 <= fraction <= 1.0 + 1e-9
    assert p.demand(t) <= peak * (1.0 + 1e-9)
