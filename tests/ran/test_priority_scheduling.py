"""Tests for QoS-priority-aware spare-capacity redistribution."""

from __future__ import annotations

import pytest

from repro.core.slices import ServiceType
from repro.ran.scheduler import SchedulerError, SliceAwareScheduler
from tests.conftest import make_request, serve_slices


class TestPriorityDispatch:
    def test_high_priority_takes_pool_first(self):
        """Two overloaded slices, pool of 20: priority 3 gets satisfied
        before priority 1 sees anything."""
        scheduler = SliceAwareScheduler(total_prbs=100)
        grants = scheduler.dispatch(
            demands_prbs={"urllc": 55.0, "embb": 80.0},
            reservations={"urllc": 40, "embb": 40},
            priorities={"urllc": 3, "embb": 1},
        )
        assert grants["urllc"] == pytest.approx(55.0)  # fully met from pool
        assert grants["embb"] == pytest.approx(45.0)  # reservation + leftover

    def test_equal_priority_proportional(self):
        scheduler = SliceAwareScheduler(total_prbs=100)
        grants = scheduler.dispatch(
            demands_prbs={"a": 60.0, "b": 70.0},
            reservations={"a": 40, "b": 40},
            priorities={"a": 2, "b": 2},
        )
        # Pool of 20 split 20:30 between unmet demands of 20 and 30.
        assert grants["a"] == pytest.approx(40 + 20 * 20 / 50)
        assert grants["b"] == pytest.approx(40 + 20 * 30 / 50)

    def test_no_priorities_is_single_level(self):
        scheduler = SliceAwareScheduler(total_prbs=100)
        with_p = scheduler.dispatch(
            {"a": 60.0, "b": 70.0}, {"a": 40, "b": 40}, priorities={"a": 0, "b": 0}
        )
        without_p = scheduler.dispatch({"a": 60.0, "b": 70.0}, {"a": 40, "b": 40})
        assert with_p == without_p

    def test_reservations_still_guaranteed_regardless_of_priority(self):
        """Low priority never loses its own reservation to a high one."""
        scheduler = SliceAwareScheduler(total_prbs=100)
        grants = scheduler.dispatch(
            demands_prbs={"urllc": 200.0, "embb": 50.0},
            reservations={"urllc": 50, "embb": 50},
            priorities={"urllc": 3, "embb": 1},
        )
        assert grants["embb"] == pytest.approx(50.0)
        assert grants["urllc"] == pytest.approx(50.0)

    def test_mismatched_priority_map_rejected(self):
        scheduler = SliceAwareScheduler(total_prbs=100)
        with pytest.raises(SchedulerError):
            scheduler.dispatch({"a": 1.0}, {"a": 10}, priorities={"b": 1})

    def test_grants_still_sound_with_priorities(self):
        scheduler = SliceAwareScheduler(total_prbs=100)
        demands = {"a": 90.0, "b": 90.0, "c": 5.0}
        reservations = {"a": 30, "b": 30, "c": 30}
        grants = scheduler.dispatch(
            demands, reservations, priorities={"a": 2, "b": 1, "c": 3}
        )
        assert sum(grants.values()) <= 100 + 1e-6
        for s in demands:
            assert grants[s] <= demands[s] + 1e-6
            assert grants[s] >= min(demands[s], reservations[s]) - 1e-6


class TestDefaultPriorities:
    def test_urllc_outranks_embb(self):
        urllc = make_request(service_type=ServiceType.URLLC)
        embb = make_request(service_type=ServiceType.EMBB)
        assert urllc.priority > embb.priority

    def test_explicit_priority_respected(self):
        request = make_request(service_type=ServiceType.EMBB)
        assert request.priority == 1
        from repro.core.slices import SLA, SliceRequest

        custom = SliceRequest(
            tenant_id="t",
            service_type=ServiceType.EMBB,
            sla=SLA(throughput_mbps=1, max_latency_ms=10, duration_s=60),
            price=1.0,
            penalty_rate=0.0,
            priority=5,
        )
        assert custom.priority == 5

    def test_negative_priority_rejected(self):
        from repro.core.slices import SLA, SliceError, SliceRequest

        with pytest.raises(SliceError):
            SliceRequest(
                tenant_id="t",
                service_type=ServiceType.EMBB,
                sla=SLA(throughput_mbps=1, max_latency_ms=10, duration_s=60),
                price=1.0,
                penalty_rate=0.0,
                priority=-1,
            )


class TestControllerIntegration:
    def test_priorities_flow_through_serve_epoch(self, testbed):
        from repro.core.slices import PLMN

        controller = testbed.ran
        # Both on enb1, each reserving 30 of 100 PRBs; pool = 40.
        controller.install_slice("hi", PLMN("001", "01"), 14.0, enb_id="enb1")
        controller.install_slice("lo", PLMN("001", "02"), 14.0, enb_id="enb1")
        per_prb = controller.enb("enb1").throughput_per_prb()
        cell_capacity = 100 * per_prb
        # Both demand 60% of the cell: together infeasible.
        demand = cell_capacity * 0.6
        delivered = serve_slices(
            controller, {"hi": demand, "lo": demand}, priorities={"hi": 3, "lo": 1}
        )
        assert delivered["hi"] > delivered["lo"]
        assert delivered["hi"] == pytest.approx(demand, rel=0.01)
