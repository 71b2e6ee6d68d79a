"""Tests for the what-if admission probe and metrics exposition."""

from __future__ import annotations

import pytest

from repro.api import build_orchestrator_api
from repro.api.service import WHAT_IF_REQUEST_ID
from repro.core.epoch import sim_gauges
from repro.core.orchestrator import Orchestrator
from repro.core.slices import peek_request_counter
from repro.obs.export import _SAMPLE_RE, render_prometheus
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request
from tests.store.durable_reference import live_state


WHAT_IF_BODY = {
    "service_type": "urllc",
    "throughput_mbps": 5.0,
    "max_latency_ms": 8.0,
    "duration_s": 600.0,
}


@pytest.fixture
def orch(testbed):
    sim = Simulator()
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=13),
    )
    orchestrator.start()
    return sim, orchestrator


class TestWhatIf:
    def test_feasible_request_would_admit(self, orch):
        _, orchestrator = orch
        report = orchestrator.what_if(make_request())
        assert report["would_admit"]
        assert report["ran"]["feasible"]
        assert report["cloud"]["candidate_dcs"]
        assert report["calendar"]["feasible"]

    def test_probe_commits_nothing(self, orch):
        _, orchestrator = orch
        before = orchestrator.allocator.free_vector()
        probe = make_request()
        next_ordinal = peek_request_counter()
        orchestrator.what_if(probe)
        after = orchestrator.allocator.free_vector()
        assert before == after
        assert orchestrator.ledger.admissions == 0
        assert orchestrator.ledger.rejections == 0
        assert orchestrator.plmn_pool.available == orchestrator.plmn_pool.capacity
        assert not orchestrator.calendar.bookings()
        # Not even a request id — through the route either, where the
        # service builds the probe: the next real slice gets the next one.
        response = build_orchestrator_api(orchestrator).post(
            "/v1/whatif", body=WHAT_IF_BODY
        )
        assert response.body["request_id"] == WHAT_IF_REQUEST_ID
        assert peek_request_counter() == next_ordinal
        assert live_state(orchestrator)["last_request_ordinal"] == next_ordinal - 1

    def test_infeasible_ran_reported(self, orch):
        _, orchestrator = orch
        report = orchestrator.what_if(make_request(throughput_mbps=500.0))
        assert not report["would_admit"]
        assert not report["ran"]["feasible"]

    def test_tight_latency_names_edge_only(self, orch):
        _, orchestrator = orch
        report = orchestrator.what_if(
            make_request(throughput_mbps=5.0, max_latency_ms=8.0)
        )
        assert report["cloud"]["candidate_dcs"] == ["edge-dc"]

    def test_calendar_conflict_reported(self, orch):
        sim, orchestrator = orch
        for _ in range(2):
            advance = make_request(throughput_mbps=40.0, duration_s=7_200.0)
            orchestrator.submit_advance(
                advance, ConstantProfile(40.0, level=0.5), start_time=600.0
            )
        report = orchestrator.what_if(
            make_request(throughput_mbps=40.0, duration_s=7_200.0)
        )
        assert not report["calendar"]["feasible"]
        assert not report["would_admit"]

    def test_whatif_route(self, orch):
        _, orchestrator = orch
        api = build_orchestrator_api(orchestrator)
        response = api.post("/v1/whatif", body=WHAT_IF_BODY)
        assert response.ok
        assert response.body["would_admit"]
        assert response.json()

    def test_whatif_route_validation(self, orch):
        _, orchestrator = orch
        api = build_orchestrator_api(orchestrator)
        assert api.post("/v1/whatif", body={}).status == 400
        # The probe is validated like the create it previews.
        assert api.post("/v1/whatif", body={**WHAT_IF_BODY, "availability": 1.5}).status == 400
        assert (
            api.post(
                "/v1/whatif",
                body={
                    "service_type": "embb",
                    "throughput_mbps": -1,
                    "max_latency_ms": 10,
                    "duration_s": 60,
                },
            ).status
            == 400
        )


class TestPrometheusExport:
    def test_format(self, orch):
        sim, orchestrator = orch
        request = make_request()
        orchestrator.submit(request, ConstantProfile(20.0, level=0.5))
        sim.run_until(120.0)
        text = render_prometheus(orchestrator.obs, sim_gauges(orchestrator))
        assert "sim_ran_effective_utilization" in text
        slice_id = request.request_id.replace("req-", "slice-")
        assert f'sim_slice_demand_mbps{{slice="{slice_id}"}}' in text
        # Every sample is "name[{labels}] value" — no timestamp field.
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            match = _SAMPLE_RE.match(line)
            assert match, line
            float(match.group("value"))
        declared = [ln for ln in text.splitlines() if ln.startswith("# TYPE sim_")]
        assert declared and len(declared) == len(set(declared))
        assert all(ln.endswith(" gauge") for ln in declared)
