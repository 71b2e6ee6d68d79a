"""Tests for per-tenant quota enforcement in the service layer
(429 ``quota_exceeded`` typed errors)."""

from __future__ import annotations

import pytest

from repro.api.service import QuotaExceeded, SliceService, TenantQuota
from repro.api.v1 import build_v1_api
from repro.core.orchestrator import Orchestrator
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


def build_stack(testbed, quotas=None, default_quota=None):
    sim = Simulator()
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=6),
    )
    orchestrator.start()
    for tenant_id, quota in (quotas or {}).items():
        orchestrator.set_quota(
            tenant_id, quota.max_active_slices, quota.max_aggregate_mbps
        )
    service = SliceService(orchestrator, default_quota=default_quota)
    return sim, orchestrator, service, build_v1_api(service)


def slice_body(**overrides):
    body = {
        "service_type": "embb",
        "throughput_mbps": 10.0,
        "max_latency_ms": 50.0,
        "duration_s": 3_600.0,
        "price": 100.0,
        "penalty_rate": 1.0,
    }
    body.update(overrides)
    return body


class TestSliceQuota:
    def test_max_active_slices_enforced(self, testbed):
        _, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_active_slices=1)}
        )
        first = api.post("/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"})
        assert first.status == 201
        second = api.post("/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"})
        assert second.status == 429
        assert second.body["error"]["code"] == "quota_exceeded"
        assert "slice quota" in second.body["error"]["message"]

    def test_quota_scoped_to_tenant(self, testbed):
        _, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_active_slices=1)}
        )
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 201
        # A different tenant has no quota and is unaffected.
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t2"}
        ).status == 201

    def test_aggregate_mbps_enforced(self, testbed):
        _, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_aggregate_mbps=15.0)}
        )
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 201
        over = api.post("/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"})
        assert over.status == 429
        assert "aggregate throughput" in over.body["error"]["message"]

    def test_quota_frees_after_teardown(self, testbed):
        sim, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_active_slices=1)}
        )
        created = api.post("/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"})
        slice_id = created.body["slice_id"]
        sim.run_until(10.0)  # reach ACTIVE
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 429
        assert api.delete(
            f"/v1/slices/{slice_id}", headers={"X-Tenant-Id": "t1"}
        ).status == 200
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 201

    def test_default_quota_applies_to_unlisted_tenants(self, testbed):
        _, _, _, api = build_stack(
            testbed,
            quotas={"vip": TenantQuota()},  # explicit: unlimited
            default_quota=TenantQuota(max_active_slices=1),
        )
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "small"}
        ).status == 201
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "small"}
        ).status == 429
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "vip"}
        ).status == 201
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "vip"}
        ).status == 201

    def test_batch_mode_checked_at_submit_time(self, testbed):
        _, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_active_slices=1)}
        )
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 201
        queued = api.post(
            "/v1/slices?mode=batch", slice_body(), headers={"X-Tenant-Id": "t1"}
        )
        assert queued.status == 429

    def test_queued_batch_operations_count_toward_quota(self, testbed):
        """N submissions in one broker window must not all slip under
        the quota: pending operations occupy quota slots."""
        sim, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_active_slices=1)}
        )
        first = api.post(
            "/v1/slices?mode=batch", slice_body(), headers={"X-Tenant-Id": "t1"}
        )
        assert first.status == 202
        second = api.post(
            "/v1/slices?mode=batch", slice_body(), headers={"X-Tenant-Id": "t1"}
        )
        assert second.status == 429
        # After the window flushes and the slice installs, still 1/1.
        sim.run_until(400.0)
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 429

    def test_bookings_checked_against_quota(self, testbed):
        _, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_active_slices=1)}
        )
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 201
        body = slice_body(start_time=1_000.0)
        booked = api.post("/v1/bookings", body, headers={"X-Tenant-Id": "t1"})
        assert booked.status == 429

    def test_pending_bookings_count_toward_quota(self, testbed):
        """Queueing future capacity must not bypass the quota."""
        sim, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_active_slices=1)}
        )
        body = slice_body(start_time=1_000.0)
        assert api.post(
            "/v1/bookings", body, headers={"X-Tenant-Id": "t1"}
        ).status == 201
        # The admitted-but-uninstalled booking occupies the quota slot.
        assert api.post(
            "/v1/bookings", body, headers={"X-Tenant-Id": "t1"}
        ).status == 429
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 429
        # Once installed, the slice (not the booking) holds the slot —
        # no double counting, still exactly one unit of quota.
        sim.run_until(1_010.0)
        over = api.post("/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"})
        assert over.status == 429
        assert "1/1 active" in over.body["error"]["message"]

    def test_cancelling_booking_frees_quota(self, testbed):
        _, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_active_slices=1)}
        )
        body = slice_body(start_time=1_000.0)
        booked = api.post("/v1/bookings", body, headers={"X-Tenant-Id": "t1"})
        assert booked.status == 201
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 429
        assert api.delete(
            f"/v1/bookings/{booked.body['booking_id']}",
            headers={"X-Tenant-Id": "t1"},
        ).status == 200
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"}
        ).status == 201

    def test_rescale_checked_against_aggregate_quota(self, testbed):
        """create-small-then-PATCH-big must not bypass the quota."""
        sim, _, _, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_aggregate_mbps=20.0)}
        )
        created = api.post("/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"})
        slice_id = created.body["slice_id"]
        sim.run_until(10.0)  # reach ACTIVE
        over = api.patch(
            f"/v1/slices/{slice_id}",
            {"throughput_mbps": 25.0},
            headers={"X-Tenant-Id": "t1"},
        )
        assert over.status == 429
        assert over.body["error"]["code"] == "quota_exceeded"
        within = api.patch(
            f"/v1/slices/{slice_id}",
            {"throughput_mbps": 18.0},
            headers={"X-Tenant-Id": "t1"},
        )
        assert within.status == 200
        # Shrinking is always allowed.
        assert api.patch(
            f"/v1/slices/{slice_id}",
            {"throughput_mbps": 5.0},
            headers={"X-Tenant-Id": "t1"},
        ).status == 200

    def test_service_raises_typed_error(self, testbed):
        _, _, service, _ = build_stack(
            testbed, default_quota=TenantQuota(max_active_slices=0)
        )
        with pytest.raises(QuotaExceeded) as excinfo:
            service.create_slice(slice_body(), header_tenant="t1")
        assert excinfo.value.status == 429
        assert excinfo.value.code == "quota_exceeded"

    def test_quota_usage_reporting(self, testbed):
        _, _, service, api = build_stack(
            testbed, quotas={"t1": TenantQuota(max_active_slices=5)}
        )
        api.post("/v1/slices", slice_body(), headers={"X-Tenant-Id": "t1"})
        usage = service.quota_usage("t1")
        assert usage["active_slices"] == 1
        assert usage["aggregate_mbps"] == 10.0
