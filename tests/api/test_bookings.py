"""Tests for advance bookings over the northbound API
(``POST /v1/bookings`` → ``Orchestrator.submit_advance``)."""

from __future__ import annotations

import pytest

from repro.api.service import SliceService
from repro.api.v1 import build_v1_api
from repro.core.orchestrator import Orchestrator
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


@pytest.fixture
def stack(testbed):
    sim = Simulator()
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=5),
    )
    orchestrator.start()
    service = SliceService(orchestrator)
    api = build_v1_api(service)
    return sim, orchestrator, api


def booking_body(**overrides):
    body = {
        "service_type": "embb",
        "throughput_mbps": 10.0,
        "max_latency_ms": 50.0,
        "duration_s": 3_600.0,
        "start_time": 1_000.0,
        "price": 100.0,
        "penalty_rate": 1.0,
    }
    body.update(overrides)
    return body


class TestCreateBooking:
    def test_booking_accepted_and_listed(self, stack):
        _, _, api = stack
        response = api.post(
            "/v1/bookings", booking_body(), headers={"X-Tenant-Id": "t1"}
        )
        assert response.status == 201
        assert response.body["admitted"] is True
        assert response.body["start_time"] == 1_000.0
        booking_id = response.body["booking_id"]
        listing = api.get("/v1/bookings")
        assert listing.status == 200
        assert listing.body["count"] == 1
        entry = listing.body["bookings"][0]
        assert entry["booking_id"] == booking_id
        assert entry["tenant_id"] == "t1"
        assert entry["start"] == 1_000.0
        assert entry["demand"]["mbps"] > 0.0

    def test_immediate_slices_not_listed_as_bookings(self, stack):
        """The calendar carries every immediate slice's commitment too;
        the bookings listing must show only actual bookings."""
        _, _, api = stack
        created = api.post(
            "/v1/slices",
            {k: v for k, v in booking_body().items() if k != "start_time"},
            headers={"X-Tenant-Id": "t1"},
        )
        assert created.status == 201
        assert api.get("/v1/bookings").body["count"] == 0

    def test_listing_is_tenant_scoped(self, stack):
        _, _, api = stack
        api.post("/v1/bookings", booking_body(), headers={"X-Tenant-Id": "t1"})
        api.post("/v1/bookings", booking_body(), headers={"X-Tenant-Id": "t2"})
        mine = api.get("/v1/bookings", headers={"X-Tenant-Id": "t1"})
        assert mine.body["count"] == 1
        assert mine.body["bookings"][0]["tenant_id"] == "t1"
        both = api.get("/v1/bookings")
        assert both.body["count"] == 2

    def test_booked_slice_installs_at_start_time(self, stack):
        sim, orchestrator, api = stack
        response = api.post(
            "/v1/bookings",
            booking_body(start_time=500.0),
            headers={"X-Tenant-Id": "t1"},
        )
        assert response.status == 201
        sim.run_until(520.0)
        active = orchestrator.active_slices()
        assert len(active) == 1
        assert active[0].request.tenant_id == "t1"

    def test_calendar_conflict_is_409(self, stack):
        _, _, api = stack
        # Each booking of 80 Mb/s needs ~163 of the 200 fleet PRBs over
        # the same window — the second cannot be promised.
        first = api.post("/v1/bookings", booking_body(throughput_mbps=80.0))
        assert first.status == 201
        second = api.post("/v1/bookings", booking_body(throughput_mbps=80.0))
        assert second.status == 409
        assert second.body["error"]["code"] == "calendar_conflict"
        assert second.body["admitted"] is False

    def test_start_time_in_past_is_400(self, stack):
        sim, _, api = stack
        sim.run_until(100.0)
        response = api.post("/v1/bookings", booking_body(start_time=50.0))
        assert response.status == 400
        assert response.body["error"]["code"] == "invalid_value"
        assert response.body["error"]["field"] == "start_time"

    def test_missing_start_time_is_400(self, stack):
        _, _, api = stack
        body = booking_body()
        del body["start_time"]
        response = api.post("/v1/bookings", body)
        assert response.status == 400
        assert response.body["error"]["code"] == "missing_field"

    def test_cancel_booking_frees_window(self, stack):
        sim, orchestrator, api = stack
        created = api.post(
            "/v1/bookings",
            booking_body(throughput_mbps=80.0),
            headers={"X-Tenant-Id": "t1"},
        )
        booking_id = created.body["booking_id"]
        # The window is promised — an identical booking conflicts...
        assert api.post(
            "/v1/bookings", booking_body(throughput_mbps=80.0)
        ).status == 409
        cancelled = api.delete(
            f"/v1/bookings/{booking_id}", headers={"X-Tenant-Id": "t1"}
        )
        assert cancelled.status == 200
        assert cancelled.body == {"booking_id": booking_id, "state": "cancelled"}
        # ...and is reusable once cancelled.
        assert api.post(
            "/v1/bookings", booking_body(throughput_mbps=80.0)
        ).status == 201
        # The scheduled install fires harmlessly: the cancelled booking
        # never produces a slice record for its tenant.
        sim.run_until(1_100.0)
        assert not orchestrator.has_slice(booking_id.replace("req-", "slice-"))
        assert orchestrator.slice_index.view("t1") == []

    def test_cancel_booking_tenant_scoped(self, stack):
        _, _, api = stack
        created = api.post(
            "/v1/bookings", booking_body(), headers={"X-Tenant-Id": "t1"}
        )
        booking_id = created.body["booking_id"]
        foreign = api.delete(
            f"/v1/bookings/{booking_id}", headers={"X-Tenant-Id": "t2"}
        )
        assert foreign.status == 404
        assert api.delete(f"/v1/bookings/nope").status == 404

    def test_cancel_after_install_conflicts(self, stack):
        sim, _, api = stack
        created = api.post(
            "/v1/bookings",
            booking_body(start_time=100.0),
            headers={"X-Tenant-Id": "t1"},
        )
        booking_id = created.body["booking_id"]
        sim.run_until(150.0)  # install fired; the booking became a slice
        response = api.delete(
            f"/v1/bookings/{booking_id}", headers={"X-Tenant-Id": "t1"}
        )
        assert response.status == 409
        assert "manage the slice" in response.body["error"]["message"]

    def test_booking_released_from_listing_after_expiry(self, stack):
        sim, orchestrator, api = stack
        api.post("/v1/bookings", booking_body(start_time=200.0, duration_s=300.0))
        assert api.get("/v1/bookings").body["count"] == 1
        sim.run_until(600.0)
        assert not orchestrator.active_slices()
        assert api.get("/v1/bookings").body["count"] == 0
