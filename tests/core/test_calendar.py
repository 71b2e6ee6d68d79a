"""Tests for the resource calendar and advance reservations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.admission import ResourceVector
from repro.core.calendar import Booking, CalendarError, ResourceCalendar
from repro.core.orchestrator import Orchestrator, OrchestratorError
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.core.slices import SliceState
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request


CAP = ResourceVector(prbs=100.0, mbps=100.0, vcpus=10.0)


def vec(prbs=10.0, mbps=10.0, vcpus=1.0):
    return ResourceVector(prbs=prbs, mbps=mbps, vcpus=vcpus)


class TestBooking:
    def test_active_interval_half_open(self):
        booking = Booking("b", 10.0, 20.0, vec())
        assert not booking.active_at(9.9)
        assert booking.active_at(10.0)
        assert booking.active_at(19.999)
        assert not booking.active_at(20.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(CalendarError):
            Booking("b", 10.0, 10.0, vec())


class TestCalendar:
    def test_usage_sums_overlapping(self):
        calendar = ResourceCalendar(CAP)
        calendar.commit("a", 0.0, 100.0, vec(prbs=30.0))
        calendar.commit("b", 50.0, 150.0, vec(prbs=40.0))
        assert calendar.usage_at(25.0).prbs == 30.0
        assert calendar.usage_at(75.0).prbs == 70.0
        assert calendar.usage_at(125.0).prbs == 40.0

    def test_peak_over_window(self):
        calendar = ResourceCalendar(CAP)
        calendar.commit("a", 0.0, 100.0, vec(prbs=30.0))
        calendar.commit("b", 50.0, 150.0, vec(prbs=40.0))
        assert calendar.peak_usage(0.0, 200.0).prbs == 70.0
        assert calendar.peak_usage(100.0, 200.0).prbs == 40.0

    def test_fits_respects_peak(self):
        calendar = ResourceCalendar(CAP)
        calendar.commit("a", 0.0, 100.0, vec(prbs=60.0))
        assert calendar.fits(vec(prbs=40.0), 0.0, 50.0)
        assert not calendar.fits(vec(prbs=41.0), 0.0, 50.0)
        assert calendar.fits(vec(prbs=90.0), 100.0, 200.0)  # after expiry

    def test_duplicate_booking_rejected(self):
        calendar = ResourceCalendar(CAP)
        calendar.commit("a", 0.0, 10.0, vec())
        with pytest.raises(CalendarError):
            calendar.commit("a", 20.0, 30.0, vec())

    def test_release(self):
        calendar = ResourceCalendar(CAP)
        calendar.commit("a", 0.0, 10.0, vec(prbs=50.0))
        calendar.release("a")
        assert calendar.usage_at(5.0).prbs == 0.0
        with pytest.raises(CalendarError):
            calendar.release("a")

    def test_prune(self):
        calendar = ResourceCalendar(CAP)
        calendar.commit("old", 0.0, 10.0, vec())
        calendar.commit("current", 0.0, 100.0, vec())
        assert calendar.prune_before(50.0) == 1
        assert calendar.has("current") and not calendar.has("old")

    def test_bookings_ordered(self):
        calendar = ResourceCalendar(CAP)
        calendar.commit("late", 50.0, 60.0, vec())
        calendar.commit("early", 0.0, 10.0, vec())
        assert [b.booking_id for b in calendar.bookings()] == ["early", "late"]

    @settings(max_examples=40, deadline=None)
    @given(
        bookings=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),  # start
                st.floats(min_value=0.1, max_value=100.0),  # duration
                st.floats(min_value=0.1, max_value=50.0),  # prbs
            ),
            max_size=12,
        ),
        window=st.tuples(
            st.floats(min_value=0.0, max_value=150.0),
            st.floats(min_value=0.1, max_value=100.0),
        ),
    )
    def test_property_peak_dominates_point_usage(self, bookings, window):
        calendar = ResourceCalendar(CAP)
        for i, (start, duration, prbs) in enumerate(bookings):
            calendar.commit(f"b{i}", start, start + duration, vec(prbs=prbs))
        w_start, w_len = window
        peak = calendar.peak_usage(w_start, w_start + w_len)
        for k in range(10):
            t = w_start + w_len * k / 10.0
            assert calendar.usage_at(t).prbs <= peak.prbs + 1e-9


class TestAdvanceReservations:
    @pytest.fixture
    def orch(self, testbed):
        sim = Simulator()
        orchestrator = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            streams=RandomStreams(seed=11),
        )
        orchestrator.start()
        return sim, orchestrator

    def test_booking_installs_at_start_time(self, orch):
        sim, orchestrator = orch
        request = make_request(duration_s=600.0)
        decision = orchestrator.submit_advance(
            request, ConstantProfile(20.0, level=0.5), start_time=1_000.0
        )
        assert decision.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        sim.run_until(500.0)
        with pytest.raises(Exception):
            orchestrator.slice(slice_id)  # not created yet
        sim.run_until(1_100.0)
        assert orchestrator.slice(slice_id).state is SliceState.ACTIVE

    def test_past_start_rejected(self, orch):
        sim, orchestrator = orch
        sim.run_until(100.0)
        with pytest.raises(OrchestratorError):
            orchestrator.submit_advance(
                make_request(), ConstantProfile(20.0), start_time=50.0
            )

    def test_overlapping_bookings_capacity_checked(self, orch):
        """Bookings whose windows overlap must jointly fit; a third that
        pushes the window over capacity is refused even though the
        network is empty *now*."""
        sim, orchestrator = orch
        outcomes = []
        for _ in range(3):
            request = make_request(throughput_mbps=40.0, duration_s=3_600.0)
            outcomes.append(
                orchestrator.submit_advance(
                    request, ConstantProfile(40.0, level=0.5), start_time=5_000.0
                ).admitted
            )
        # 40 Mb/s ⇒ 82 PRBs; aggregate 200 ⇒ two fit, the third does not.
        assert outcomes == [True, True, False]

    def test_nonoverlapping_bookings_all_accepted(self, orch):
        sim, orchestrator = orch
        for i in range(3):
            request = make_request(throughput_mbps=40.0, duration_s=1_000.0)
            decision = orchestrator.submit_advance(
                request,
                ConstantProfile(40.0, level=0.5),
                start_time=5_000.0 + i * 2_000.0,
            )
            assert decision.admitted

    def test_immediate_submit_respects_future_booking(self, orch):
        """The paper's 'upcoming requests': an immediate slice that would
        collide with a promised booking is refused."""
        sim, orchestrator = orch
        # Promise most of the RAN to two future bookings.
        for _ in range(2):
            request = make_request(throughput_mbps=40.0, duration_s=7_200.0)
            assert orchestrator.submit_advance(
                request, ConstantProfile(40.0, level=0.5), start_time=600.0
            ).admitted
        # An immediate long-lived slice overlapping that window must not
        # cannibalize the promised capacity.
        request = make_request(throughput_mbps=40.0, duration_s=7_200.0)
        decision = orchestrator.submit(request, ConstantProfile(40.0, level=0.5))
        assert not decision.admitted
        assert "advance reservations" in decision.reason
        # A short immediate slice that ends before the bookings start is fine.
        request = make_request(throughput_mbps=40.0, duration_s=300.0)
        assert orchestrator.submit(request, ConstantProfile(40.0, level=0.5)).admitted

    def test_update_demand_keeps_window(self):
        calendar = ResourceCalendar(CAP)
        calendar.commit("a", 10.0, 20.0, vec(prbs=50.0))
        updated = calendar.update_demand("a", vec(prbs=20.0))
        assert (updated.start, updated.end) == (10.0, 20.0)
        assert calendar.usage_at(15.0).prbs == 20.0
        with pytest.raises(CalendarError):
            calendar.update_demand("ghost", vec())

    def test_calendar_shrinks_with_overbooking_reconfiguration(self, testbed):
        """Regression: the calendar must track *effective* commitments.
        After forecast-driven shrinkage, the calendar's booked demand for
        the slice drops, so newcomers are not vetoed by stale nominals."""
        from repro.core.orchestrator import OrchestratorConfig
        from repro.core.overbooking import ForecastOverbooking

        sim = Simulator()
        orchestrator = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            overbooking=ForecastOverbooking(quantile=0.9),
            config=OrchestratorConfig(
                monitoring_epoch_s=60.0,
                reconfig_every_epochs=2,
                min_history_for_forecast=5,
            ),
            streams=RandomStreams(seed=11),
        )
        orchestrator.start()
        request = make_request(throughput_mbps=40.0, duration_s=7_200.0)
        orchestrator.submit(request, ConstantProfile(40.0, level=0.25, noise_std=0.02))
        booked_before = orchestrator.calendar.usage_at(sim.now + 100.0).prbs
        sim.run_until(1_800.0)
        booked_after = orchestrator.calendar.usage_at(sim.now + 100.0).prbs
        assert booked_after < booked_before

    def test_calendar_released_on_expiry(self, orch):
        sim, orchestrator = orch
        request = make_request(duration_s=300.0)
        orchestrator.submit(request, ConstantProfile(20.0, level=0.5))
        assert orchestrator.calendar.has(request.request_id)
        sim.run_until(500.0)
        assert not orchestrator.calendar.has(request.request_id)
