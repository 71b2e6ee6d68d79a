"""Tests for the versioned northbound surface (/v1): tenancy,
pagination, async batch operations, and the event feed."""

from __future__ import annotations

import pytest

from repro.api import build_orchestrator_api
from repro.api.service import SliceService
from repro.core.broker import SliceBroker
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
        streams=RandomStreams(seed=2),
    )
    orchestrator.start()
    broker = SliceBroker(orchestrator, window_s=300.0)
    service = SliceService(orchestrator, broker=broker)
    api = build_orchestrator_api(orchestrator, service=service)
    return sim, orchestrator, broker, api


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


class TestIndex:
    def test_v1_index_lists_routes(self, stack):
        _, _, _, api = stack
        response = api.get("/v1")
        assert response.ok
        assert response.body["version"] == "v1"
        assert "POST /v1/slices" in response.body["routes"]
        assert all(" /v1" in route for route in response.body["routes"])

    def test_unversioned_routes_are_gone(self, stack):
        _, _, _, api = stack
        for method, path in (
            ("POST", "/slices"), ("GET", "/slices"), ("GET", "/dashboard"),
            ("POST", "/whatif"), ("GET", "/domains/ran"),
        ):
            assert api.dispatch(method, path, body={}).status == 404

    def test_router_errors_are_enveloped(self, stack):
        """404/405 produced by the router itself (before any handler
        runs) carry the envelope, under /v1 and outside it alike."""
        _, _, _, api = stack
        unknown = api.get("/v1/nope")
        assert unknown.status == 404
        assert unknown.body["error"]["code"] == "not_found"
        wrong_verb = api.dispatch("PUT", "/v1/slices")
        assert wrong_verb.status == 405
        assert wrong_verb.body["error"]["code"] == "method_not_allowed"
        outside = api.get("/nope")
        assert outside.status == 404
        assert outside.body == {
            "error": {"code": "not_found", "message": "no route for /nope"}
        }

    def test_nan_throughput_is_400_not_500(self, stack):
        _, _, _, api = stack
        response = api.post("/v1/slices", body=slice_body(throughput_mbps="nan"))
        assert response.status == 400
        assert response.body["error"]["code"] == "invalid_value"


class TestCreateSync:
    def test_create_returns_real_slice_id(self, stack):
        sim, orchestrator, _, api = stack
        response = api.post("/v1/slices", body=slice_body())
        assert response.status == 201
        slice_id = response.body["slice_id"]
        # The id comes from the orchestrator's decision, not string
        # surgery in the route layer — it must resolve.
        assert orchestrator.slice(slice_id).slice_id == slice_id
        assert response.body["location"] == f"/v1/slices/{slice_id}"

    def test_rejection_is_enveloped_409(self, stack):
        _, _, _, api = stack
        response = api.post("/v1/slices", body=slice_body(throughput_mbps=500.0))
        assert response.status == 409
        assert response.body["error"]["code"] == "admission_rejected"
        assert response.body["admitted"] is False
        assert response.body["slice_id"]  # rejected slices get a record too

    def test_validation_error_enveloped_400(self, stack):
        _, _, _, api = stack
        response = api.post("/v1/slices", body={"service_type": "embb"})
        assert response.status == 400
        assert response.body["error"]["code"] == "missing_field"

    def test_unknown_mode_400(self, stack):
        _, _, _, api = stack
        response = api.post("/v1/slices?mode=telepathy", body=slice_body())
        assert response.status == 400
        assert response.body["error"]["field"] == "mode"

    def test_header_tenant_overrides_body(self, stack):
        sim, orchestrator, _, api = stack
        response = api.post(
            "/v1/slices",
            body=slice_body(tenant_id="imposter"),
            headers={"X-Tenant-Id": "real-tenant"},
        )
        assert response.status == 201
        assert response.body["tenant_id"] == "real-tenant"


class TestTenantScoping:
    def test_listing_is_tenant_scoped(self, stack):
        _, _, _, api = stack
        api.post("/v1/slices", body=slice_body(), headers={"X-Tenant-Id": "alpha"})
        api.post("/v1/slices", body=slice_body(), headers={"X-Tenant-Id": "alpha"})
        api.post("/v1/slices", body=slice_body(), headers={"X-Tenant-Id": "beta"})
        all_slices = api.get("/v1/slices").body
        assert all_slices["total"] == 3
        alpha = api.get("/v1/slices", headers={"X-Tenant-Id": "alpha"}).body
        assert alpha["total"] == 2
        assert all(s["tenant"] == "alpha" for s in alpha["slices"])
        beta = api.get("/v1/slices", headers={"X-Tenant-Id": "beta"}).body
        assert beta["total"] == 1

    def test_foreign_detail_reads_as_404(self, stack):
        _, _, _, api = stack
        created = api.post(
            "/v1/slices", body=slice_body(), headers={"X-Tenant-Id": "alpha"}
        ).body
        mine = api.get(
            f"/v1/slices/{created['slice_id']}", headers={"X-Tenant-Id": "alpha"}
        )
        assert mine.ok
        foreign = api.get(
            f"/v1/slices/{created['slice_id']}", headers={"X-Tenant-Id": "beta"}
        )
        assert foreign.status == 404
        assert foreign.body["error"]["code"] == "not_found"

    def test_foreign_delete_reads_as_404(self, stack):
        sim, _, _, api = stack
        created = api.post(
            "/v1/slices", body=slice_body(), headers={"X-Tenant-Id": "alpha"}
        ).body
        sim.run_until(10.0)
        response = api.delete(
            f"/v1/slices/{created['slice_id']}", headers={"X-Tenant-Id": "beta"}
        )
        assert response.status == 404


class TestPagination:
    def test_pagination_boundaries(self, stack):
        _, _, _, api = stack
        ids = [
            api.post("/v1/slices", body=slice_body(throughput_mbps=2.0)).body["slice_id"]
            for _ in range(5)
        ]
        page = api.get("/v1/slices?offset=0&limit=2").body
        assert [s["slice_id"] for s in page["slices"]] == ids[:2]
        assert page["total"] == 5 and page["count"] == 2
        page = api.get("/v1/slices?offset=4&limit=2").body
        assert [s["slice_id"] for s in page["slices"]] == ids[4:]
        assert page["count"] == 1
        page = api.get("/v1/slices?offset=5&limit=2").body
        assert page["slices"] == [] and page["total"] == 5

    def test_bad_pagination_params_400(self, stack):
        _, _, _, api = stack
        assert api.get("/v1/slices?offset=-1").status == 400
        assert api.get("/v1/slices?limit=zero").status == 400

    def test_state_filter(self, stack):
        sim, _, _, api = stack
        api.post("/v1/slices", body=slice_body())
        api.post("/v1/slices", body=slice_body(throughput_mbps=500.0))  # rejected
        sim.run_until(10.0)
        active = api.get("/v1/slices?state=active").body
        assert active["total"] == 1
        rejected = api.get("/v1/slices?state=rejected").body
        assert rejected["total"] == 1
        assert api.get("/v1/slices?state=bogus").status == 400


class TestBatchLifecycle:
    def test_202_then_poll_until_admitted(self, stack):
        sim, orchestrator, broker, api = stack
        response = api.post(
            "/v1/slices?mode=batch",
            body=slice_body(),
            headers={"X-Tenant-Id": "alpha"},
        )
        assert response.status == 202
        op_id = response.body["operation_id"]
        assert response.body["status"] == "pending"
        assert response.body["location"] == f"/v1/operations/{op_id}"
        # Nothing decided before the window flushes.
        pending = api.get(f"/v1/operations/{op_id}")
        assert pending.ok
        assert pending.body["status"] == "pending"
        assert pending.body["decision"] is None
        assert broker.pending == 1
        # The window flushes at window_s; the operation resolves.
        sim.run_until(301.0)
        done = api.get(f"/v1/operations/{op_id}").body
        assert done["status"] == "succeeded"
        assert done["decision"]["admitted"] is True
        slice_id = done["slice_id"]
        assert api.get(f"/v1/slices/{slice_id}").ok

    def test_batch_rejection_resolves_failed(self, stack):
        sim, _, _, api = stack
        op_id = api.post(
            "/v1/slices?mode=batch", body=slice_body(throughput_mbps=500.0)
        ).body["operation_id"]
        sim.run_until(301.0)
        done = api.get(f"/v1/operations/{op_id}").body
        assert done["status"] == "failed"
        assert done["decision"]["admitted"] is False
        assert done["decision"]["reason"]

    def test_operations_are_tenant_scoped(self, stack):
        _, _, _, api = stack
        op_id = api.post(
            "/v1/slices?mode=batch",
            body=slice_body(),
            headers={"X-Tenant-Id": "alpha"},
        ).body["operation_id"]
        assert api.get(f"/v1/operations/{op_id}", headers={"X-Tenant-Id": "beta"}).status == 404
        listing = api.get("/v1/operations", headers={"X-Tenant-Id": "beta"}).body
        assert listing["count"] == 0
        listing = api.get("/v1/operations", headers={"X-Tenant-Id": "alpha"}).body
        assert listing["count"] == 1

    def test_unknown_operation_404(self, stack):
        _, _, _, api = stack
        assert api.get("/v1/operations/op-999999").status == 404

    def test_operation_store_bound_is_hard(self):
        """Even an all-pending burst cannot grow the registry past its
        capacity (oldest pending evicted as a last resort)."""
        from repro.api.service import OperationStore
        from repro.core.admission import AdmissionDecision

        store = OperationStore(capacity=3)
        ops = [store.create("k", f"req-{i}", "t", 0.0) for i in range(5)]
        assert len(store.list()) == 3
        assert store.get(ops[0].op_id) is None  # oldest pending evicted
        assert store.get(ops[4].op_id) is not None
        # Resolved ops are preferred victims over pending ones.
        store.resolve(ops[2].op_id, AdmissionDecision("req-2", True, "ok"), 1.0)
        store.create("k", "req-5", "t", 2.0)
        assert store.get(ops[2].op_id) is None
        assert store.get(ops[3].op_id) is not None

    def test_batch_window_batches_multiple_requests(self, stack):
        sim, orchestrator, _, api = stack
        ops = [
            api.post("/v1/slices?mode=batch", body=slice_body(throughput_mbps=5.0)).body[
                "operation_id"
            ]
            for _ in range(3)
        ]
        sim.run_until(301.0)
        for op_id in ops:
            assert api.get(f"/v1/operations/{op_id}").body["status"] == "succeeded"
        assert orchestrator.ledger.admissions == 3


class TestEventFeed:
    def test_lifecycle_events_appear(self, stack):
        sim, _, _, api = stack
        created = api.post("/v1/slices", body=slice_body()).body
        api.post("/v1/slices", body=slice_body(throughput_mbps=500.0))
        sim.run_until(10.0)
        feed = api.get("/v1/events").body
        types = [e["type"] for e in feed["events"]]
        assert "slice.admitted" in types
        assert "slice.rejected" in types
        assert "slice.activated" in types
        admitted = next(e for e in feed["events"] if e["type"] == "slice.admitted")
        assert admitted["slice_id"] == created["slice_id"]

    def test_since_cursor(self, stack):
        sim, _, _, api = stack
        api.post("/v1/slices", body=slice_body())
        first = api.get("/v1/events").body
        assert first["events"]
        cursor = first["last_seq"]
        empty = api.get(f"/v1/events?since={cursor}").body
        assert empty["events"] == []
        api.post("/v1/slices", body=slice_body(throughput_mbps=2.0))
        fresh = api.get(f"/v1/events?since={cursor}").body
        assert fresh["events"]
        assert all(e["seq"] > cursor for e in fresh["events"])

    def test_feed_is_tenant_scoped(self, stack):
        _, _, _, api = stack
        api.post("/v1/slices", body=slice_body(), headers={"X-Tenant-Id": "alpha"})
        api.post("/v1/slices", body=slice_body(), headers={"X-Tenant-Id": "beta"})
        alpha = api.get("/v1/events", headers={"X-Tenant-Id": "alpha"}).body
        assert alpha["events"]
        assert all(e["tenant_id"] in (None, "alpha") for e in alpha["events"])

    def test_tenant_filter_applies_before_limit(self, stack):
        """A burst of foreign-tenant events must not push a tenant's own
        event past the page limit."""
        _, _, _, api = stack
        for _ in range(3):
            api.post(
                "/v1/slices",
                body=slice_body(throughput_mbps=2.0),
                headers={"X-Tenant-Id": "noisy"},
            )
        api.post("/v1/slices", body=slice_body(), headers={"X-Tenant-Id": "quiet"})
        page = api.get("/v1/events?limit=1", headers={"X-Tenant-Id": "quiet"}).body
        assert len(page["events"]) == 1
        assert page["events"][0]["tenant_id"] == "quiet"

    def test_cancel_emits_event(self, stack):
        _, _, _, api = stack
        created = api.post("/v1/slices", body=slice_body()).body
        response = api.delete(f"/v1/slices/{created['slice_id']}")
        assert response.ok
        assert response.body["state"] == "cancelled"
        assert response.body["refund"] == pytest.approx(100.0)
        types = [e["type"] for e in api.get("/v1/events").body["events"]]
        assert "slice.cancelled" in types

    def test_bad_since_400(self, stack):
        _, _, _, api = stack
        assert api.get("/v1/events?since=yesterday").status == 400


class TestObservability:
    def test_dashboard_and_domains_json_safe(self, stack):
        sim, _, _, api = stack
        api.post("/v1/slices", body=slice_body())
        sim.run_until(120.0)
        dashboard = api.get("/v1/dashboard")
        assert dashboard.ok
        assert dashboard.json()
        for domain in ("ran", "transport", "cloud"):
            response = api.get(f"/v1/domains/{domain}")
            assert response.ok
            assert response.json()
        assert api.get("/v1/domains/quantum").status == 404

    def test_whatif_route(self, stack):
        _, _, _, api = stack
        response = api.post(
            "/v1/whatif",
            body={
                "service_type": "urllc",
                "throughput_mbps": 5.0,
                "max_latency_ms": 8.0,
                "duration_s": 600.0,
            },
        )
        assert response.ok
        assert response.body["would_admit"]


class TestModifyAndDelete:
    def test_patch_rescales(self, stack):
        sim, orchestrator, _, api = stack
        created = api.post("/v1/slices", body=slice_body()).body
        sim.run_until(10.0)
        response = api.patch(
            f"/v1/slices/{created['slice_id']}", body={"throughput_mbps": 12.0}
        )
        assert response.ok
        assert orchestrator.slice(created["slice_id"]).request.sla.throughput_mbps == 12.0

    def test_patch_infeasible_enveloped_409(self, stack):
        sim, _, _, api = stack
        created = api.post("/v1/slices", body=slice_body()).body
        sim.run_until(10.0)
        response = api.patch(
            f"/v1/slices/{created['slice_id']}", body={"throughput_mbps": 500.0}
        )
        assert response.status == 409
        assert response.body["error"]["code"] == "modification_rejected"

    def test_delete_active_then_conflict(self, stack):
        sim, _, _, api = stack
        created = api.post("/v1/slices", body=slice_body()).body
        sim.run_until(10.0)
        assert api.delete(f"/v1/slices/{created['slice_id']}").ok
        second = api.delete(f"/v1/slices/{created['slice_id']}")
        assert second.status == 409
        assert second.body["error"]["code"] == "conflict"
