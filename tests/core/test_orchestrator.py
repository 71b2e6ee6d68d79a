"""Tests for the end-to-end orchestrator."""

from __future__ import annotations

import pytest

from repro.core.admission import FcfsPolicy
from repro.core.orchestrator import Orchestrator, OrchestratorConfig, OrchestratorError
from repro.core.overbooking import AdaptiveOverbooking, FixedOverbooking, NoOverbooking
from repro.core.slices import SliceState
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request


@pytest.fixture
def orchestrator(testbed):
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        admission=FcfsPolicy(),
        overbooking=NoOverbooking(),
        config=OrchestratorConfig(monitoring_epoch_s=60.0, deploy_time_s=3.0),
        streams=RandomStreams(seed=1),
    )
    orch.start()
    return orch


def submit(orch, **kwargs):
    request = make_request(arrival_time=orch.sim.now, **kwargs)
    profile = ConstantProfile(request.sla.throughput_mbps, level=0.5, noise_std=0.0)
    decision = orch.submit(request, profile)
    return request, decision


class TestSubmission:
    def test_admitted_slice_reaches_active(self, orchestrator):
        request, decision = submit(orchestrator)
        assert decision.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        assert orchestrator.slice(slice_id).state is SliceState.DEPLOYING
        orchestrator.sim.run_until(10.0)
        assert orchestrator.slice(slice_id).state is SliceState.ACTIVE
        assert orchestrator.slice(slice_id).plmn is not None

    def test_rejected_request_books_rejection(self, orchestrator):
        request, decision = submit(orchestrator, throughput_mbps=500.0)
        assert not decision.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        assert orchestrator.slice(slice_id).state is SliceState.REJECTED
        assert orchestrator.ledger.rejections == 1

    def test_admission_books_revenue(self, orchestrator):
        submit(orchestrator, price=77.0)
        assert orchestrator.ledger.gross_revenue == 77.0

    def test_slice_expires_after_duration(self, orchestrator):
        request, _ = submit(orchestrator, duration_s=120.0)
        slice_id = request.request_id.replace("req-", "slice-")
        orchestrator.sim.run_until(200.0)
        network_slice = orchestrator.slice(slice_id)
        assert network_slice.state is SliceState.EXPIRED
        # Resources returned.
        assert orchestrator.allocator.ran.serving_enb_of(slice_id) is None
        assert orchestrator.plmn_pool.available == orchestrator.plmn_pool.capacity

    def test_plmn_pool_bound_rejects(self, testbed):
        from repro.core.slices import PlmnPool

        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=PlmnPool(size=1),
            streams=RandomStreams(seed=1),
        )
        orch.start()
        _, first = submit(orch, throughput_mbps=5.0)
        _, second = submit(orch, throughput_mbps=5.0)
        assert first.admitted and not second.admitted
        assert "PLMN" in second.reason

    def test_unknown_slice_lookup_raises(self, orchestrator):
        with pytest.raises(OrchestratorError):
            orchestrator.slice("slice-999999")


class TestBatchInstall:
    """``install_admitted_batch``: already-admitted requests through the
    batch planner, decided when the call returns."""

    def test_admitted_requests_install_as_one_planner_batch(self, orchestrator):
        requests = [make_request(throughput_mbps=8.0 + i) for i in range(3)]
        decisions = orchestrator.install_admitted_batch([
            (request, ConstantProfile(request.sla.throughput_mbps, level=0.5, noise_std=0.0))
            for request in requests
        ])
        assert [d.request_id for d in decisions] == [r.request_id for r in requests]
        assert all(d.admitted for d in decisions)
        assert orchestrator.planner.batches_run == 1
        assert orchestrator.planner.jobs_installed == 3
        for request in requests:
            slice_id = request.request_id.replace("req-", "slice-")
            assert orchestrator.slice(slice_id).state is SliceState.DEPLOYING

    def test_a_failed_install_books_a_rejection_with_zero_residue(self, orchestrator):
        request = make_request(throughput_mbps=500.0)  # beyond any cell
        (decision,) = orchestrator.install_admitted_batch(
            [(request, ConstantProfile(500.0, level=0.5, noise_std=0.0))]
        )
        assert not decision.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        assert orchestrator.slice(slice_id).state is SliceState.REJECTED
        for driver in orchestrator.registry.drivers():
            assert driver.reservation_of(slice_id) is None


class TestMonitoring:
    def test_epochs_record_demand_and_delivery(self, orchestrator):
        request, _ = submit(orchestrator)
        slice_id = request.request_id.replace("req-", "slice-")
        orchestrator.sim.run_until(300.0)
        runtime = orchestrator.runtime(slice_id)
        assert len(runtime.demand_history) >= 4
        assert runtime.demand_history[-1] == (300.0, runtime.last_demand_mbps)
        assert runtime.last_delivered_mbps > 0

    def test_no_violations_without_overbooking(self, orchestrator):
        submit(orchestrator)
        orchestrator.sim.run_until(600.0)
        assert orchestrator.fleet.sla_monitor.violation_rate() == 0.0

    def test_gain_tracked_each_epoch(self, orchestrator):
        submit(orchestrator)
        orchestrator.sim.run_until(300.0)
        assert len(orchestrator.fleet.gain_tracker.series) >= 4

    def test_active_slices_listing(self, orchestrator):
        submit(orchestrator)
        submit(orchestrator, throughput_mbps=10.0)
        orchestrator.sim.run_until(10.0)
        assert len(orchestrator.active_slices()) == 2


class TestOverbookingLoop:
    def test_fixed_overbooking_shrinks_commitment_at_admission(self, testbed):
        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            overbooking=FixedOverbooking(factor=2.0),
            streams=RandomStreams(seed=1),
        )
        orch.start()
        request, decision = submit(orch, throughput_mbps=40.0)
        assert decision.admitted
        sim.run_until(10.0)
        slice_id = request.request_id.replace("req-", "slice-")
        allocation = orch.slice(slice_id).allocation
        assert allocation.ran.effective_prbs < allocation.ran.nominal_prbs

    def test_reconfiguration_shrinks_idle_slice(self, testbed):
        """A slice at 30% load should get resized below nominal once the
        forecaster has history."""
        from repro.core.overbooking import ForecastOverbooking

        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            overbooking=ForecastOverbooking(quantile=0.9),
            config=OrchestratorConfig(
                monitoring_epoch_s=60.0,
                reconfig_every_epochs=3,
                min_history_for_forecast=6,
            ),
            streams=RandomStreams(seed=1),
        )
        orch.start()
        request = make_request(throughput_mbps=40.0, duration_s=7_200.0)
        profile = ConstantProfile(40.0, level=0.3, noise_std=0.02)
        decision = orch.submit(request, profile)
        assert decision.admitted
        sim.run_until(3_600.0)
        slice_id = request.request_id.replace("req-", "slice-")
        runtime = orch.runtime(slice_id)
        assert runtime.effective_fraction < 1.0
        allocation = orch.slice(slice_id).allocation
        assert allocation.ran.effective_prbs < allocation.ran.nominal_prbs

    def test_adaptive_policy_receives_observations(self, testbed):
        sim = Simulator()
        policy = AdaptiveOverbooking(violation_budget=0.05)
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            overbooking=policy,
            streams=RandomStreams(seed=1),
        )
        orch.start()
        request = make_request(duration_s=1_000.0)
        orch.submit(request, ConstantProfile(request.sla.throughput_mbps, level=0.5))
        sim.run_until(600.0)
        assert policy._epochs > 0


class TestUeSimulation:
    def test_ues_attach_when_enabled(self, testbed):
        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            config=OrchestratorConfig(simulate_ues=True, max_ues_per_slice=4),
            streams=RandomStreams(seed=1),
        )
        orch.start()
        request = make_request(n_users=10)
        orch.submit(request, ConstantProfile(request.sla.throughput_mbps, level=0.5))
        sim.run_until(10.0)
        slice_id = request.request_id.replace("req-", "slice-")
        runtime = orch.runtime(slice_id)
        assert len(runtime.ues) == 4
        assert any(ue.attached for ue in runtime.ues)
        assert runtime.epc is not None
        assert runtime.epc.active_sessions >= 1

    def test_ues_detach_on_expiry(self, testbed):
        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            config=OrchestratorConfig(simulate_ues=True, max_ues_per_slice=2),
            streams=RandomStreams(seed=1),
        )
        orch.start()
        request = make_request(duration_s=60.0)
        orch.submit(request, ConstantProfile(request.sla.throughput_mbps, level=0.5))
        sim.run_until(10.0)
        slice_id = request.request_id.replace("req-", "slice-")
        ues = orch.runtime(slice_id).ues
        sim.run_until(120.0)
        assert all(not ue.attached for ue in ues)


class TestSnapshot:
    def test_snapshot_structure(self, orchestrator):
        submit(orchestrator)
        orchestrator.sim.run_until(120.0)
        snapshot = orchestrator.snapshot()
        assert snapshot["active"] == 1
        assert snapshot["ledger"]["admissions"] == 1
        assert {"ran", "transport", "cloud"} <= set(snapshot["domains"])
        assert snapshot["multiplexing_gain"] > 0

    def test_snapshot_is_json_safe(self, orchestrator):
        import json

        submit(orchestrator)
        orchestrator.sim.run_until(120.0)
        assert json.dumps(orchestrator.snapshot())
