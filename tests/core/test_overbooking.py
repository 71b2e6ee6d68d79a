"""Tests for the overbooking engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.forecasting import MovingAverageForecaster, NaiveForecaster
from repro.core.overbooking import (
    AdaptiveOverbooking,
    FixedOverbooking,
    ForecastOverbooking,
    MultiplexingGainTracker,
    NoOverbooking,
    OverbookingDecision,
    OverbookingError,
    SlaMonitor,
)


class TestDecision:
    def test_fraction(self):
        d = OverbookingDecision("s", nominal=10.0, effective=6.0)
        assert d.fraction == pytest.approx(0.6)

    def test_effective_above_nominal_rejected(self):
        with pytest.raises(OverbookingError):
            OverbookingDecision("s", nominal=10.0, effective=11.0)

    def test_zero_effective_rejected(self):
        with pytest.raises(OverbookingError):
            OverbookingDecision("s", nominal=10.0, effective=0.0)

    def test_nonpositive_nominal_rejected(self):
        with pytest.raises(OverbookingError):
            OverbookingDecision("s", nominal=0.0, effective=0.0)


class TestNoOverbooking:
    def test_commits_full_nominal(self):
        d = NoOverbooking().decide("s", 25.0)
        assert d.effective == 25.0
        assert d.fraction == 1.0

    def test_nonpositive_nominal_rejected(self):
        with pytest.raises(OverbookingError):
            NoOverbooking().decide("s", 0.0)


class TestFixedOverbooking:
    def test_divides_by_factor(self):
        d = FixedOverbooking(factor=2.0).decide("s", 10.0)
        assert d.effective == pytest.approx(5.0)

    def test_factor_one_is_no_overbooking(self):
        d = FixedOverbooking(factor=1.0).decide("s", 10.0)
        assert d.effective == pytest.approx(10.0)

    def test_factor_below_one_rejected(self):
        with pytest.raises(OverbookingError):
            FixedOverbooking(factor=0.5)

    def test_min_fraction_floor(self):
        d = FixedOverbooking(factor=100.0).decide("s", 10.0)
        assert d.effective >= 10.0 * FixedOverbooking.MIN_FRACTION


class TestForecastOverbooking:
    def test_cold_start_commits_nominal(self):
        d = ForecastOverbooking().decide("s", 10.0, forecaster=None)
        assert d.effective == 10.0

    def test_commits_forecast_quantile(self):
        forecaster = NaiveForecaster().fit([4.0] * 20)
        d = ForecastOverbooking(quantile=0.95).decide("s", 10.0, forecaster=forecaster)
        assert d.effective == pytest.approx(4.0, abs=0.5)

    def test_never_exceeds_nominal(self):
        forecaster = NaiveForecaster().fit([100.0] * 20)
        d = ForecastOverbooking().decide("s", 10.0, forecaster=forecaster)
        assert d.effective == 10.0

    def test_respects_min_fraction_floor(self):
        forecaster = NaiveForecaster().fit([0.001] * 20)
        d = ForecastOverbooking().decide("s", 10.0, forecaster=forecaster)
        assert d.effective >= 10.0 * ForecastOverbooking.MIN_FRACTION

    def test_bad_quantile_rejected(self):
        with pytest.raises(OverbookingError):
            ForecastOverbooking(quantile=1.0)

    def test_higher_quantile_commits_more(self):
        rng = np.random.default_rng(0)
        forecaster = MovingAverageForecaster(window=10).fit(5 + rng.normal(0, 1, 50))
        low = ForecastOverbooking(quantile=0.6).decide("s", 20.0, forecaster=forecaster)
        high = ForecastOverbooking(quantile=0.99).decide("s", 20.0, forecaster=forecaster)
        assert high.effective >= low.effective


class TestAdaptiveOverbooking:
    def test_violations_raise_quantile(self):
        policy = AdaptiveOverbooking(violation_budget=0.05, initial_quantile=0.9)
        q0 = policy.quantile
        for _ in range(10):
            policy.observe(violated=True)
        assert policy.quantile > q0

    def test_clean_epochs_lower_quantile(self):
        policy = AdaptiveOverbooking(violation_budget=0.05, initial_quantile=0.9)
        q0 = policy.quantile
        for _ in range(50):
            policy.observe(violated=False)
        assert policy.quantile < q0

    def test_quantile_stays_in_band(self):
        policy = AdaptiveOverbooking(violation_budget=0.0, initial_quantile=0.9, gain=10.0)
        for _ in range(100):
            policy.observe(violated=True)
        assert policy.quantile <= AdaptiveOverbooking.Q_MAX
        for _ in range(10_000):
            policy.observe(violated=False)
        assert policy.quantile >= AdaptiveOverbooking.Q_MIN

    def test_observed_rate(self):
        policy = AdaptiveOverbooking()
        policy.observe(True)
        policy.observe(False)
        assert policy.observed_violation_rate() == pytest.approx(0.5)

    def test_converges_near_budget(self):
        """Feed epochs whose violation chance rises as q falls; the
        controller should settle with an observed rate near budget."""
        rng = np.random.default_rng(1)
        policy = AdaptiveOverbooking(violation_budget=0.1, gain=0.3)
        for _ in range(3_000):
            # Lower q ⇒ more aggressive ⇒ higher violation probability.
            p_violation = max(0.0, (0.95 - policy.quantile)) * 0.8 + 0.02
            policy.observe(bool(rng.random() < p_violation))
        assert abs(policy.observed_violation_rate() - 0.1) < 0.05

    def test_bad_budget_rejected(self):
        with pytest.raises(OverbookingError):
            AdaptiveOverbooking(violation_budget=1.0)

    def test_decide_delegates_to_forecast_policy(self):
        forecaster = NaiveForecaster().fit([4.0] * 20)
        d = AdaptiveOverbooking().decide("s", 10.0, forecaster=forecaster)
        assert 0 < d.effective <= 10.0


class TestGainTracker:
    def test_gain_definition(self):
        assert MultiplexingGainTracker.gain(150.0, 100.0) == pytest.approx(1.5)

    def test_zero_capacity_gives_zero(self):
        assert MultiplexingGainTracker.gain(10.0, 0.0) == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(OverbookingError):
            MultiplexingGainTracker.gain(1.0, -1.0)

    def test_record_and_aggregates(self):
        tracker = MultiplexingGainTracker()
        tracker.record(0.0, 100.0, 100.0)
        tracker.record(1.0, 160.0, 100.0)
        assert tracker.peak_gain() == pytest.approx(1.6)
        assert tracker.mean_gain() == pytest.approx(1.3)

    def test_empty_tracker(self):
        tracker = MultiplexingGainTracker()
        assert tracker.peak_gain() == 0.0
        assert tracker.mean_gain() == 0.0


def check(monitor, demand, delivered, nominal):
    """One slice's epoch through the array check: its violated flag."""
    (violated,) = monitor.check(
        np.array([demand], float), np.array([delivered], float), np.array([nominal], float)
    ).tolist()
    return violated


class TestSlaMonitor:
    def test_shortfall_is_violation(self):
        monitor = SlaMonitor()
        assert check(monitor, demand=10.0, delivered=5.0, nominal=10.0)

    def test_full_delivery_no_violation(self):
        monitor = SlaMonitor()
        assert not check(monitor, demand=10.0, delivered=10.0, nominal=10.0)

    def test_demand_above_nominal_not_violation(self):
        """Delivering the nominal is enough even when demand exceeds it."""
        monitor = SlaMonitor()
        assert not check(monitor, demand=20.0, delivered=10.0, nominal=10.0)

    def test_tolerance_absorbs_noise(self):
        monitor = SlaMonitor(tolerance=0.05)
        assert not check(monitor, demand=10.0, delivered=9.6, nominal=10.0)

    def test_rates(self):
        monitor = SlaMonitor()
        violated = monitor.check(
            np.array([10.0, 10.0, 10.0]), np.array([5.0, 10.0, 10.0]), np.array([10.0] * 3)
        )
        assert violated.tolist() == [True, False, False]
        assert (monitor.total_epochs, monitor.total_violations) == (3, 1)
        assert monitor.violation_rate() == pytest.approx(1 / 3)

    def test_unknown_slice_rate_is_zero(self):
        """No epoch served yet: the fleet-wide rate is zero, not a division."""
        assert SlaMonitor().violation_rate() == 0.0

    def test_nonpositive_nominal_rejected(self):
        with pytest.raises(OverbookingError):
            check(SlaMonitor(), 1.0, 1.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        demand=st.floats(min_value=0.0, max_value=1e3),
        delivered=st.floats(min_value=0.0, max_value=1e3),
        nominal=st.floats(min_value=0.1, max_value=1e3),
    )
    def test_delivering_entitlement_never_violates(self, demand, delivered, nominal):
        monitor = SlaMonitor()
        entitled = min(demand, nominal)
        violated = check(monitor, demand, max(delivered, entitled), nominal)
        assert not violated
