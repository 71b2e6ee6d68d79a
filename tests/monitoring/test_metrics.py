"""Sim telemetry is a read, not a store: what a scrape shows is gathered
off live state when it asks (:func:`repro.core.epoch.sim_gauges`), and
the only thing kept per slice is the demand tail on its runtime."""

from __future__ import annotations

import gc
from collections import deque
from types import FunctionType, ModuleType

import pytest

from repro.api import build_orchestrator_api
from repro.core.epoch import sim_gauges
from repro.core.orchestrator import FORECAST_HISTORY_EPOCHS, Orchestrator, OrchestratorConfig
from repro.core.overbooking import FixedOverbooking
from repro.core.slices import PLMN, SliceState, slice_id_for
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request

DOMAIN_GAUGES = {
    ("ran.effective_utilization", ""),
    ("ran.nominal_utilization", ""),
    ("transport.effective_utilization", ""),
    ("transport.nominal_utilization", ""),
    ("cloud.vcpu_utilization", ""),
}
SLICE_GAUGES = (
    "slice.demand_mbps",
    "slice.delivered_mbps",
    "slice.violated",
    "slice.effective_fraction",
)


@pytest.fixture
def orchestrator(testbed):
    orch = Orchestrator(
        sim=Simulator(),
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        overbooking=FixedOverbooking(factor=1.25),
        config=OrchestratorConfig(observability=False),
        streams=RandomStreams(seed=5),
    )
    orch.start()
    return orch


def submit(orch, **kwargs) -> str:
    request = make_request(arrival_time=orch.sim.now, **kwargs)
    profile = ConstantProfile(request.sla.throughput_mbps, level=0.6, noise_std=0.05)
    assert orch.submit(request, profile).admitted
    return slice_id_for(request.request_id)


def recomputed_domain_ratios(allocator) -> dict:
    ran = allocator.ran.utilization()
    transport = allocator.transport.utilization()
    cloud = allocator.cloud.utilization()
    return {
        ("ran.effective_utilization", ""): ran["effective_reserved"] / ran["total_prbs"],
        ("ran.nominal_utilization", ""): ran["nominal_reserved"] / ran["total_prbs"],
        ("transport.effective_utilization", ""): transport["effective_reserved_mbps"]
        / transport["total_capacity_mbps"],
        ("transport.nominal_utilization", ""): transport["nominal_reserved_mbps"]
        / transport["total_capacity_mbps"],
        ("cloud.vcpu_utilization", ""): 1.0
        - cloud["free_vcpus"] / cloud["total_vcpus"],
    }


class TestCollector:
    def test_collect_domains_records_gauges(self, orchestrator):
        submit(orchestrator)
        gauges = sim_gauges(orchestrator)
        assert set(gauges) == DOMAIN_GAUGES  # installed, no epoch served yet
        assert all(0.0 < gauges[key] <= 1.0 for key in DOMAIN_GAUGES)
        # Overbooked at install: committed below nominal.
        assert (
            gauges["ran.effective_utilization", ""]
            < gauges["ran.nominal_utilization", ""]
        )

    def test_partial_controllers(self, orchestrator, testbed):
        """Only the RAN holds load: the idle domains still report, as 0."""
        testbed.ran.install_slice("direct", PLMN("001", "77"), 10.0)
        gauges = sim_gauges(orchestrator)
        assert set(gauges) == DOMAIN_GAUGES
        assert gauges["ran.nominal_utilization", ""] > 0.0
        assert gauges["transport.nominal_utilization", ""] == 0.0
        assert gauges["cloud.vcpu_utilization", ""] == 0.0

    def test_record_slice_epoch(self, orchestrator):
        slice_id = submit(orchestrator)
        orchestrator.sim.run_until(61.0)
        gauges = sim_gauges(orchestrator)
        runtime = orchestrator.runtime(slice_id)
        assert gauges["slice.demand_mbps", slice_id] == runtime.last_demand_mbps > 0.0
        assert gauges["slice.delivered_mbps", slice_id] == runtime.last_delivered_mbps
        assert gauges["slice.violated", slice_id] == 0.0
        assert len(runtime.demand_history) == 1
        assert runtime.demand_history[-1] == (60.0, runtime.last_demand_mbps)


class TestPullEqualsState:
    def test_gauges_are_the_live_runtimes_and_a_utilization_recompute(
        self, orchestrator
    ):
        sim = orchestrator.sim
        served = [submit(orchestrator), submit(orchestrator, throughput_mbps=8.0)]
        expiring = submit(orchestrator, duration_s=100.0)
        terminated = submit(orchestrator, throughput_mbps=6.0)
        cancelled = submit(orchestrator, throughput_mbps=4.0)
        orchestrator.cancel(cancelled)
        sim.run_until(130.0)  # epochs at 60 and 120; `expiring` gone at 103
        orchestrator.terminate_early(terminated)
        sim.run_until(185.0)  # epoch at 180
        activated = submit(orchestrator, throughput_mbps=3.0)
        sim.run_until(189.0)  # ACTIVE since 188, but no epoch served yet
        deploying = submit(orchestrator, throughput_mbps=5.0)

        assert orchestrator.slice(expiring).state is SliceState.EXPIRED
        assert orchestrator.slice(activated).state is SliceState.ACTIVE
        assert orchestrator.slice(deploying).state is SliceState.DEPLOYING
        gauges = sim_gauges(orchestrator)
        per_slice = {key: value for key, value in gauges.items() if key[1]}
        assert {slice_id for _, slice_id in per_slice} == set(served)
        for slice_id in served:
            runtime = orchestrator.runtime(slice_id)
            assert len(runtime.demand_history) == 3
            assert [per_slice[metric, slice_id] for metric in SLICE_GAUGES] == [
                runtime.last_demand_mbps,
                runtime.last_delivered_mbps,
                float(runtime.last_violated),
                runtime.effective_fraction,
            ]
            assert runtime.effective_fraction == pytest.approx(0.8)
        domain = {key: value for key, value in gauges.items() if not key[1]}
        assert domain == pytest.approx(recomputed_domain_ratios(orchestrator.allocator))

    def test_scrape_with_observability_off_is_sim_only(self, orchestrator):
        api = build_orchestrator_api(orchestrator)
        live = submit(orchestrator)
        gone = submit(orchestrator, duration_s=100.0)
        orchestrator.sim.run_until(61.0)
        before = api.get("/v1/admin/metrics").text
        assert f'slice="{gone}"' in before
        orchestrator.sim.run_until(121.0)
        text = api.get("/v1/admin/metrics").text
        assert "cp_" not in text
        assert f'sim_slice_demand_mbps{{slice="{live}"}} ' in text
        assert "sim_cloud_vcpu_utilization " in text
        assert gone not in text  # expired: no series lingers


class TestRepairFailuresAreCounted:
    def test_refused_repair_lands_on_the_one_registry(self, testbed):
        orchestrator = Orchestrator(
            sim=Simulator(),
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            config=OrchestratorConfig(observability=True),
        )
        orchestrator.start()
        slice_id = submit(orchestrator, throughput_mbps=15.0)
        orchestrator.sim.run_until(10.0)
        # Every link out of the slice's cell site down: no detour exists.
        topology = testbed.transport.topology
        path = orchestrator.slice(slice_id).allocation.transport.path
        source = topology.link(path.link_ids[0]).src
        for link in topology.links():
            if link.src == source:
                link.fail()
        orchestrator.sim.run_until(121.0)  # two epochs, two refused repairs
        assert orchestrator.obs.counters()["slice.repair_failed", "transport"] == 2
        scrape = build_orchestrator_api(orchestrator).get("/v1/admin/metrics").text
        assert 'cp_slice_repair_failed_total{label="transport"} 2\n' in scrape
        assert f'sim_slice_violated{{slice="{slice_id}"}} 1\n' in scrape


def reachable_time_series(root) -> int:
    """Time series reachable from ``root`` through data — per-slice
    demand histories and the gain tracker's series (closures are
    followed; code, classes and modules are not)."""
    gain_series = root.gain_tracker.series
    seen = {id(root)}
    stack = [root]
    found = 0
    while stack:
        obj = stack.pop()
        if obj is gain_series or (
            isinstance(obj, deque) and obj.maxlen == FORECAST_HISTORY_EPOCHS
        ):
            found += 1
        if isinstance(obj, FunctionType):
            referents = obj.__closure__ or ()
        else:
            referents = gc.get_referents(obj)
        for referent in referents:
            if isinstance(referent, (type, ModuleType)) or id(referent) in seen:
                continue
            seen.add(id(referent))
            stack.append(referent)
    return found


class TestNothingOutlivesItsSlice:
    def test_time_series_count_is_live_runtimes_plus_the_gain_tracker(
        self, orchestrator
    ):
        sim = orchestrator.sim
        keeper = submit(orchestrator, throughput_mbps=4.0)
        for _ in range(50):  # create -> activate -> epoch -> delete
            slice_id = submit(orchestrator, throughput_mbps=4.0)
            sim.run_until(sim.now + 61.0)
            assert len(orchestrator.runtime(slice_id).demand_history) >= 1
            orchestrator.terminate_early(slice_id)
        assert [s.slice_id for s in orchestrator.live_slices()] == [keeper]
        assert reachable_time_series(orchestrator) == 1 + 1
