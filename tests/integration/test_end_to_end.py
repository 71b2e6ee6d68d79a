"""Integration tests: full orchestrator round-trips on the Fig. 2 testbed."""

from __future__ import annotations


from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.overbooking import ForecastOverbooking
from repro.core.slices import SliceState
from repro.scenarios import ArrivalSpec, ScenarioSpec, run_scenario
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile, DiurnalProfile
from tests.conftest import make_request


def arrivals_spec(seed, horizon_s, rate_per_s, overbooking, mix="default"):
    return ScenarioSpec(
        name="e2e",
        seed=seed,
        horizon_s=horizon_s,
        n_enbs=2,
        arrivals=ArrivalSpec(rate_per_s=rate_per_s, mix=mix),
        overbooking=overbooking,
    )


def build_orchestrator(testbed, **kwargs):
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=5),
        **kwargs,
    )
    orch.start()
    return sim, orch


class TestFullLifecycle:
    def test_submit_deploy_serve_expire_readmit(self, testbed):
        sim, orch = build_orchestrator(testbed)
        request = make_request(duration_s=600.0)
        profile = ConstantProfile(request.sla.throughput_mbps, level=0.5, noise_std=0.0)
        decision = orch.submit(request, profile)
        assert decision.admitted
        sim.run_until(300.0)
        slice_id = request.request_id.replace("req-", "slice-")
        assert orch.slice(slice_id).state is SliceState.ACTIVE
        assert orch.runtime(slice_id).last_delivered_mbps > 0
        sim.run_until(700.0)
        assert orch.slice(slice_id).state is SliceState.EXPIRED
        # All three domains fully reclaimed: a new identical request fits.
        request2 = make_request(duration_s=600.0)
        assert orch.submit(request2, profile).admitted

    def test_capacity_exhaustion_then_recovery(self, testbed):
        sim, orch = build_orchestrator(testbed)
        admitted = []
        # Saturate the RAN with 30 Mb/s slices (cell ≈ 49 Mb/s).
        for i in range(6):
            request = make_request(throughput_mbps=30.0, duration_s=900.0)
            profile = ConstantProfile(30.0, level=0.4, noise_std=0.0)
            decision = orch.submit(request, profile)
            admitted.append(decision.admitted)
        assert admitted[:2] == [True, True]
        assert not all(admitted)  # someone got rejected
        rejected_count = orch.ledger.rejections
        assert rejected_count >= 1
        # After expiry the next request is admitted again.
        sim.run_until(1_000.0)
        request = make_request(throughput_mbps=30.0)
        assert orch.submit(
            request, ConstantProfile(30.0, level=0.4, noise_std=0.0)
        ).admitted

    def test_multi_vertical_workload_all_states_terminal_or_active(self, testbed):
        result = run_scenario(arrivals_spec(3, 3_600.0, 1 / 90.0, "fixed:1.5"))
        assert result.submitted >= 20
        assert result.admitted >= 5


class TestOverbookingBehaviour:
    def test_overbooking_admits_more_than_baseline(self):
        """The headline demo claim at admission level: overbooked posture
        accommodates more slices than nominal reservation."""
        base = run_scenario(arrivals_spec(9, 3_600.0, 1 / 60.0, "none"))
        overbooked = run_scenario(arrivals_spec(9, 3_600.0, 1 / 60.0, "fixed:2.0"))
        assert overbooked.admitted > base.admitted
        assert overbooked.peak_multiplexing_gain > 1.0

    def test_aggressive_overbooking_causes_violations(self):
        """Push hard enough and SLA violations (penalties) must appear —
        the other side of the demo's trade-off."""
        result = run_scenario(
            arrivals_spec(4, 4 * 3_600.0, 1 / 45.0, "fixed:3.0", mix="embb")
        )
        assert result.violation_rate > 0.0
        assert result.total_penalties > 0.0

    def test_forecast_overbooking_reconfigures_down(self, testbed):
        sim, orch = build_orchestrator(
            testbed,
            overbooking=ForecastOverbooking(quantile=0.9),
            config=OrchestratorConfig(
                monitoring_epoch_s=60.0,
                reconfig_every_epochs=2,
                min_history_for_forecast=5,
            ),
        )
        request = make_request(throughput_mbps=40.0, duration_s=3_600.0)
        orch.submit(request, ConstantProfile(40.0, level=0.25, noise_std=0.02))
        sim.run_until(1_800.0)
        slice_id = request.request_id.replace("req-", "slice-")
        assert orch.runtime(slice_id).effective_fraction < 0.6


class TestPlmnMapping:
    def test_each_slice_gets_unique_plmn(self, testbed):
        sim, orch = build_orchestrator(testbed)
        plmns = set()
        for _ in range(4):
            request = make_request(throughput_mbps=8.0)
            decision = orch.submit(
                request, ConstantProfile(8.0, level=0.5, noise_std=0.0)
            )
            assert decision.admitted
            slice_id = request.request_id.replace("req-", "slice-")
            plmns.add(str(orch.slice(slice_id).plmn))
        assert len(plmns) == 4

    def test_enb_broadcasts_installed_slices(self, testbed):
        sim, orch = build_orchestrator(testbed)
        request = make_request(throughput_mbps=8.0)
        orch.submit(request, ConstantProfile(8.0, level=0.5, noise_std=0.0))
        sim.run_until(10.0)
        slice_id = request.request_id.replace("req-", "slice-")
        network_slice = orch.slice(slice_id)
        enb = testbed.ran.enb(network_slice.allocation.ran.enb_id)
        assert enb.broadcasts(network_slice.plmn.plmn_id)


class TestDiurnalWorkload:
    def test_diurnal_slice_served_across_day(self, testbed):
        sim, orch = build_orchestrator(
            testbed,
            overbooking=ForecastOverbooking(quantile=0.95),
            config=OrchestratorConfig(
                monitoring_epoch_s=300.0,
                reconfig_every_epochs=4,
                min_history_for_forecast=8,
            ),
        )
        request = make_request(throughput_mbps=30.0, duration_s=86_400.0)
        profile = DiurnalProfile(30.0, base=0.2, noise_std=0.05)
        assert orch.submit(request, profile).admitted
        sim.run_until(86_000.0)
        slice_id = request.request_id.replace("req-", "slice-")
        network_slice = orch.slice(slice_id)
        assert network_slice.served_epochs > 200
        # A single slice on an otherwise idle testbed must meet its SLA.
        assert network_slice.violation_ratio() < 0.05
