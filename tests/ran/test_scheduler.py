"""Tests for the inter-slice MAC scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ran.scheduler import SchedulerError, SliceAwareScheduler


class TestSliceAware:
    def test_grants_capped_by_demand(self):
        scheduler = SliceAwareScheduler(total_prbs=100)
        grants = scheduler.dispatch(
            demands_prbs={"a": 10.0, "b": 5.0},
            reservations={"a": 40, "b": 40},
        )
        assert grants["a"] == pytest.approx(10.0)
        assert grants["b"] == pytest.approx(5.0)

    def test_unused_reservation_redistributed(self):
        scheduler = SliceAwareScheduler(total_prbs=100)
        grants = scheduler.dispatch(
            demands_prbs={"idle": 5.0, "hot": 90.0},
            reservations={"idle": 50, "hot": 50},
        )
        assert grants["idle"] == pytest.approx(5.0)
        assert grants["hot"] == pytest.approx(90.0)  # borrowed 40 + pool

    def test_overload_leaves_shortfall(self):
        scheduler = SliceAwareScheduler(total_prbs=100)
        grants = scheduler.dispatch(
            demands_prbs={"a": 80.0, "b": 80.0},
            reservations={"a": 50, "b": 50},
        )
        assert sum(grants.values()) == pytest.approx(100.0)
        assert grants["a"] == pytest.approx(80.0 * 100 / 160, abs=20)

    def test_reservation_guarantee(self):
        """A slice demanding exactly its reservation always gets it."""
        scheduler = SliceAwareScheduler(total_prbs=100)
        grants = scheduler.dispatch(
            demands_prbs={"a": 50.0, "b": 999.0},
            reservations={"a": 50, "b": 50},
        )
        assert grants["a"] == pytest.approx(50.0)

    def test_mismatched_maps_rejected(self):
        with pytest.raises(SchedulerError):
            SliceAwareScheduler(100).dispatch({"a": 1.0}, {"b": 1})

    def test_overcommitted_reservations_rejected(self):
        with pytest.raises(SchedulerError):
            SliceAwareScheduler(100).dispatch(
                {"a": 1.0, "b": 1.0}, {"a": 60, "b": 60}
            )

    def test_negative_demand_rejected(self):
        with pytest.raises(SchedulerError):
            SliceAwareScheduler(100).dispatch({"a": -1.0}, {"a": 10})

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=200.0),  # demand
                st.integers(min_value=1, max_value=30),  # reservation
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_property_grants_sound(self, data):
        """Invariants: Σ grants ≤ budget; grant ≤ demand; grant ≥
        min(demand, reservation)."""
        total = 100
        demands = {f"s{i}": d for i, (d, _) in enumerate(data)}
        reservations = {f"s{i}": r for i, (_, r) in enumerate(data)}
        if sum(reservations.values()) > total:
            return  # infeasible input, covered by the rejection test
        grants = SliceAwareScheduler(total).dispatch(demands, reservations)
        assert sum(grants.values()) <= total + 1e-6
        for slice_id, grant in grants.items():
            assert grant <= demands[slice_id] + 1e-6
            assert grant >= min(demands[slice_id], reservations[slice_id]) - 1e-6
