"""Tests for the orchestrator's REST surface as ``build_orchestrator_api``
wires it (the ``/v1`` routes over one service)."""

from __future__ import annotations

import pytest

from repro.api import build_orchestrator_api
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
    return sim, orchestrator, build_orchestrator_api(orchestrator)


def slice_body(**overrides):
    body = {
        "service_type": "embb",
        "throughput_mbps": 15.0,
        "max_latency_ms": 50.0,
        "duration_s": 3_600.0,
        "price": 100.0,
        "penalty_rate": 1.0,
        "tenant_id": "tester",
    }
    body.update(overrides)
    return body


class TestPostSlices:
    def test_create_slice(self, stack):
        sim, orchestrator, api = stack
        response = api.post("/v1/slices", body=slice_body())
        assert response.status == 201
        assert response.body["admitted"]
        assert response.body["slice_id"].startswith("slice-")

    def test_rejection_is_409(self, stack):
        sim, orchestrator, api = stack
        response = api.post("/v1/slices", body=slice_body(throughput_mbps=500.0))
        assert response.status == 409
        assert not response.body["admitted"]
        assert response.body["error"]["code"] == "admission_rejected"

    def test_missing_fields_400(self, stack):
        _, _, api = stack
        response = api.post("/v1/slices", body={"service_type": "embb"})
        assert response.status == 400
        assert response.body["error"]["code"] == "missing_field"
        assert "missing" in response.body["error"]["message"]

    def test_unknown_service_type_400(self, stack):
        _, _, api = stack
        response = api.post("/v1/slices", body=slice_body(service_type="warp-drive"))
        assert response.status == 400

    def test_invalid_sla_400(self, stack):
        _, _, api = stack
        response = api.post("/v1/slices", body=slice_body(throughput_mbps=-5.0))
        assert response.status == 400


class TestGetSlices:
    def test_list_and_detail(self, stack):
        sim, orchestrator, api = stack
        created = api.post("/v1/slices", body=slice_body()).body
        listing = api.get("/v1/slices")
        assert len(listing.body["slices"]) == 1
        detail = api.get(f"/v1/slices/{created['slice_id']}")
        assert detail.status == 200
        assert detail.body["tenant"] == "tester"

    def test_unknown_slice_404(self, stack):
        _, _, api = stack
        assert api.get("/v1/slices/slice-999999").status == 404


class TestDeleteSlice:
    def test_delete_active_slice(self, stack):
        sim, orchestrator, api = stack
        created = api.post("/v1/slices", body=slice_body()).body
        sim.run_until(10.0)  # let it deploy
        response = api.delete(f"/v1/slices/{created['slice_id']}")
        assert response.status == 200
        detail = api.get(f"/v1/slices/{created['slice_id']}")
        assert detail.body["state"] == "expired"

    def test_delete_before_active_cancels(self, stack):
        """Deleting a slice still pending activation cancels it with a
        full refund instead of answering a blanket 409."""
        sim, orchestrator, api = stack
        created = api.post("/v1/slices", body=slice_body()).body
        response = api.delete(f"/v1/slices/{created['slice_id']}")
        assert response.status == 200
        assert response.body["state"] == "cancelled"
        assert response.body["refund"] == pytest.approx(100.0)
        detail = api.get(f"/v1/slices/{created['slice_id']}")
        assert detail.body["state"] == "cancelled"

    def test_delete_terminal_slice_409(self, stack):
        sim, orchestrator, api = stack
        created = api.post("/v1/slices", body=slice_body()).body
        sim.run_until(10.0)
        assert api.delete(f"/v1/slices/{created['slice_id']}").status == 200
        response = api.delete(f"/v1/slices/{created['slice_id']}")
        assert response.status == 409

    def test_delete_unknown_404(self, stack):
        _, _, api = stack
        assert api.delete("/v1/slices/slice-999999").status == 404


class TestDashboardRoutes:
    def test_dashboard_snapshot(self, stack):
        sim, orchestrator, api = stack
        api.post("/v1/slices", body=slice_body())
        sim.run_until(120.0)
        response = api.get("/v1/dashboard")
        assert response.ok
        assert response.body["active"] == 1
        assert response.json()  # JSON-serializable

    def test_domain_views(self, stack):
        _, _, api = stack
        for domain in ("ran", "transport", "cloud"):
            response = api.get(f"/v1/domains/{domain}")
            assert response.ok
            assert response.body["domain"] == domain

    def test_unknown_domain_404(self, stack):
        _, _, api = stack
        assert api.get("/v1/domains/quantum").status == 404
