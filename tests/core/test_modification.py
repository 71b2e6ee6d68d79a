"""Tests for tenant-requested slice scaling (mid-life modification)."""

from __future__ import annotations

import pytest

from repro.api import build_orchestrator_api
from repro.core.orchestrator import Orchestrator
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request


@pytest.fixture
def stack(testbed):
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=5),
    )
    orch.start()
    return testbed, sim, orch


def active_slice(sim, orch, mbps=20.0):
    request = make_request(throughput_mbps=mbps, duration_s=3_600.0)
    decision = orch.submit(request, ConstantProfile(mbps, level=0.5, noise_std=0.0))
    assert decision.admitted
    sim.run_until(sim.now + 10.0)
    return request.request_id.replace("req-", "slice-")


class TestRenominate:
    def test_prb_grid_renominate(self):
        from repro.ran.prb import PrbError, PrbGrid

        grid = PrbGrid(10.0)
        grid.reserve("s1", 20, 20)
        grid.renominate("s1", 40, 40)
        assert grid.reservation("s1").nominal == 40
        with pytest.raises(PrbError):
            grid.renominate("s1", 60, 60)  # > 50 budget
        # Old reservation intact after failure.
        assert grid.reservation("s1").nominal == 40

    def test_link_renominate(self):
        from repro.transport.links import Link, LinkError

        link = Link("l", "a", "b", capacity_mbps=100.0)
        link.reserve("s1", 40.0, 40.0)
        link.renominate("s1", 60.0, 60.0)
        assert link.residual_mbps == pytest.approx(40.0)
        with pytest.raises(LinkError):
            link.renominate("s1", 200.0, 200.0)
        assert link.nominal_reserved_mbps == pytest.approx(60.0)


class TestOrchestratorModify:
    def test_scale_up(self, stack):
        testbed, sim, orch = stack
        slice_id = active_slice(sim, orch, mbps=15.0)
        before = orch.slice(slice_id).allocation
        decision = orch.modify_slice(slice_id, 30.0)
        assert decision.admitted
        after = orch.slice(slice_id).allocation
        assert after.ran.nominal_prbs > before.ran.nominal_prbs
        assert after.transport.nominal_mbps == pytest.approx(30.0)
        assert orch.slice(slice_id).request.sla.throughput_mbps == 30.0
        assert orch.runtime(slice_id).profile.peak_mbps == 30.0

    def test_scale_down(self, stack):
        testbed, sim, orch = stack
        slice_id = active_slice(sim, orch, mbps=30.0)
        decision = orch.modify_slice(slice_id, 10.0)
        assert decision.admitted
        after = orch.slice(slice_id).allocation
        assert after.transport.nominal_mbps == pytest.approx(10.0)

    def test_scale_beyond_cell_rejected_and_unchanged(self, stack):
        testbed, sim, orch = stack
        slice_id = active_slice(sim, orch, mbps=20.0)
        before = orch.slice(slice_id).allocation
        decision = orch.modify_slice(slice_id, 300.0)
        assert not decision.admitted
        after = orch.slice(slice_id).allocation
        assert after.ran.nominal_prbs == before.ran.nominal_prbs
        assert after.transport.nominal_mbps == before.transport.nominal_mbps
        assert orch.slice(slice_id).request.sla.throughput_mbps == 20.0

    def test_modify_inactive_slice_rejected(self, stack):
        testbed, sim, orch = stack
        request = make_request()
        orch.submit(request, ConstantProfile(20.0, level=0.5))
        slice_id = request.request_id.replace("req-", "slice-")
        # Still DEPLOYING (deploy_time_s has not elapsed).
        decision = orch.modify_slice(slice_id, 10.0)
        assert not decision.admitted
        assert "not active" in decision.reason

    def test_path_and_cell_preserved(self, stack):
        testbed, sim, orch = stack
        slice_id = active_slice(sim, orch)
        before = orch.slice(slice_id).allocation
        orch.modify_slice(slice_id, 25.0)
        after = orch.slice(slice_id).allocation
        assert after.ran.enb_id == before.ran.enb_id
        assert after.transport.path.link_ids == before.transport.path.link_ids
        assert after.cloud.stack_id == before.cloud.stack_id

    def test_ran_rolled_back_when_transport_fails(self, stack):
        """Force a transport-only failure: fill the path link so the grow
        fits the cell but not the link."""
        testbed, sim, orch = stack
        slice_id = active_slice(sim, orch, mbps=10.0)
        network_slice = orch.slice(slice_id)
        path_links = network_slice.allocation.transport.path.link_ids
        # Consume the first path link's residual with a foreign reservation.
        link = testbed.transport.topology.link(path_links[0])
        link.reserve("squatter", link.residual_mbps, link.residual_mbps)
        before_prbs = network_slice.allocation.ran.nominal_prbs
        decision = orch.modify_slice(slice_id, 40.0)
        assert not decision.admitted
        enb = testbed.ran.enb(network_slice.allocation.ran.enb_id)
        assert enb.grid.reservation(slice_id).nominal == before_prbs


class TestApiPatch:
    def test_patch_route(self, stack):
        testbed, sim, orch = stack
        api = build_orchestrator_api(orch)
        slice_id = active_slice(sim, orch, mbps=15.0)
        response = api.patch(f"/v1/slices/{slice_id}", body={"throughput_mbps": 25.0})
        assert response.status == 200
        assert orch.slice(slice_id).request.sla.throughput_mbps == 25.0

    def test_patch_missing_body_400(self, stack):
        testbed, sim, orch = stack
        api = build_orchestrator_api(orch)
        slice_id = active_slice(sim, orch)
        assert api.patch(f"/v1/slices/{slice_id}", body={}).status == 400

    def test_patch_unknown_slice_404(self, stack):
        testbed, sim, orch = stack
        api = build_orchestrator_api(orch)
        assert api.patch("/v1/slices/slice-999999", body={"throughput_mbps": 1.0}).status == 404

    def test_patch_infeasible_409(self, stack):
        testbed, sim, orch = stack
        api = build_orchestrator_api(orch)
        slice_id = active_slice(sim, orch)
        response = api.patch(f"/v1/slices/{slice_id}", body={"throughput_mbps": 500.0})
        assert response.status == 409
