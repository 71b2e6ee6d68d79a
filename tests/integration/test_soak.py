"""Soak test: every feature running together over a simulated day.

One scenario exercises at once: batch broker, advance bookings, adaptive
overbooking driven by Holt-Winters forecasts, city-trace traffic,
priority scheduling, a link-failure window with self-healing, one
mid-life slice rescale — then asserts the global invariants still hold.

A second scenario (``churn_run``) soaks the *fleet-scale install
engine*: multiple tenants submit admission bursts that flush through
the broker into the concurrent batch planner, slices expire and free
capacity for the next burst, a link fails and heals mid-run — and the
event feed must never carry a ``driver.rollback`` for an install that
ultimately succeeded.

The churn scenario scales through the environment so the nightly CI
soak can run it much harder than the per-push tier-1 budget allows:

- ``SOAK_CHURN_CYCLES`` — admission-burst cycles (default 6).
- ``SOAK_BURST_SLICES`` — slices per tenant per burst (default 3).
"""

from __future__ import annotations

import os

import pytest

from repro.core.epoch import sim_gauges
from repro.core.admission import KnapsackPolicy
from repro.core.broker import SliceBroker
from repro.core.forecasting import HoltWintersForecaster
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.overbooking import AdaptiveOverbooking
from repro.core.slices import ServiceType, SliceState
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.obs.export import render_prometheus
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from repro.traffic.traces import SyntheticCityTrace
from tests.conftest import make_request

HOUR = 3_600.0


@pytest.fixture(scope="module")
def soak_run():
    testbed = build_testbed()
    sim = Simulator()
    streams = RandomStreams(seed=99)
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        overbooking=AdaptiveOverbooking(violation_budget=0.05),
        forecaster_factory=lambda: HoltWintersForecaster(season_length=24),
        config=OrchestratorConfig(
            monitoring_epoch_s=300.0,
            reconfig_every_epochs=4,
            min_history_for_forecast=10,
        ),
        streams=streams,
    )
    orch.start()
    broker = SliceBroker(orch, window_s=600.0, policy=KnapsackPolicy())
    # Advance booking for the evening.
    evening = make_request(
        throughput_mbps=30.0,
        duration_s=3 * HOUR,
        price=300.0,
        service_type=ServiceType.EMBB,
    )
    evening_decision = orch.submit_advance(
        evening,
        SyntheticCityTrace("residential").profile(
            30.0, n_days=1, rng=streams.stream("evening")
        ),
        start_time=18.0 * HOUR,
    )
    # Day-time walk-ins through the broker (mixed land uses/verticals).
    walk_ins = []
    for i, (hour, land_use, stype, mbps) in enumerate(
        [
            (1.0, "office", ServiceType.EMBB, 15.0),
            (2.0, "transport", ServiceType.AUTOMOTIVE, 8.0),
            (3.0, "residential", ServiceType.EHEALTH, 6.0),
            (4.0, "office", ServiceType.URLLC, 4.0),
            (6.0, "residential", ServiceType.EMBB, 18.0),
            (9.0, "office", ServiceType.MMTC, 3.0),
        ]
    ):
        request = make_request(
            throughput_mbps=mbps,
            duration_s=10 * HOUR,
            service_type=stype,
            max_latency_ms=10.0 if stype is ServiceType.URLLC else 60.0,
        )
        walk_ins.append(request)
        profile = SyntheticCityTrace(land_use).profile(
            mbps, n_days=1, rng=streams.stream(f"trace-{i}")
        )
        sim.schedule_at(hour * HOUR, lambda r=request, p=profile: broker.submit(r, p))
    # A link-failure window at midday; self-healing should absorb it.
    topo = testbed.transport.topology
    sim.schedule_at(12.0 * HOUR, lambda: topo.link("enb1-mmwave-fwd").fail())
    sim.schedule_at(12.5 * HOUR, lambda: topo.link("enb1-mmwave-fwd").restore())
    # Rescale the first walk-in mid-life.
    sim.schedule_at(
        7.0 * HOUR,
        lambda: orch.modify_slice(
            walk_ins[0].request_id.replace("req-", "slice-"), 20.0
        ),
    )
    sim.run_until(23.0 * HOUR)
    return testbed, orch, broker, evening, evening_decision, walk_ins


class TestSoak:
    def test_advance_booking_honoured(self, soak_run):
        _, orch, _, evening, decision, _ = soak_run
        assert decision.admitted
        state = orch.slice(evening.request_id.replace("req-", "slice-")).state
        assert state in (SliceState.ACTIVE, SliceState.EXPIRED)

    def test_every_slice_in_legal_state(self, soak_run):
        _, orch, _, _, _, _ = soak_run
        for network_slice in orch.all_slices():
            assert network_slice.state in (
                SliceState.ACTIVE,
                SliceState.DEPLOYING,
                SliceState.EXPIRED,
                SliceState.REJECTED,
            )

    def test_no_physical_overcommit(self, soak_run):
        testbed, _, _, _, _, _ = soak_run
        for enb in testbed.ran.enbs():
            enb.grid.check_invariants()
        for link in testbed.transport.topology.links():
            assert link.effective_reserved_mbps <= link.capacity_mbps + 1e-6
        for dc in testbed.cloud.datacenters():
            for node in dc.nodes():
                node.check_invariants()

    def test_ledger_consistent(self, soak_run):
        _, orch, _, _, _, _ = soak_run
        ledger = orch.ledger
        assert ledger.net_revenue == pytest.approx(
            ledger.gross_revenue - ledger.total_penalties
        )
        assert ledger.admissions >= 4

    def test_adaptive_kept_violations_low(self, soak_run):
        _, orch, _, _, _, _ = soak_run
        assert orch.sla_monitor.violation_rate() < 0.15

    def test_rescale_applied(self, soak_run):
        _, orch, _, _, _, walk_ins = soak_run
        network_slice = orch.slice(walk_ins[0].request_id.replace("req-", "slice-"))
        # Rescaled at 7 h to 20 Mb/s (slice may have expired since; SLA
        # reflects the modification regardless).
        assert network_slice.request.sla.throughput_mbps == 20.0

    def test_self_healing_engaged_if_needed(self, soak_run):
        testbed, orch, _, _, _, _ = soak_run
        # If any active slice rode enb1's mmWave link at noon, it was
        # repaired; otherwise no repair was needed. Either way no slice
        # is stuck on a dead path now.
        for network_slice in orch.active_slices():
            path = network_slice.allocation.transport.path
            for lid in path.link_ids:
                assert testbed.transport.topology.link(lid).up

    def test_dashboard_renders_after_soak(self, soak_run):
        _, orch, _, _, _, _ = soak_run
        from repro.dashboard.dashboard import Dashboard

        rendered = Dashboard(orch).render()
        assert "multiplexing gain" in rendered
        scrape = render_prometheus(orch.obs, sim_gauges(orch))
        assert "sim_ran_effective_utilization " in scrape
        for network_slice in orch.active_slices():
            assert (
                f'sim_slice_demand_mbps{{slice="{network_slice.slice_id}"}} '
                in scrape
            )

    def test_forecast_driven_reconfigurations_happened(self, soak_run):
        """At least one slice lived long enough for the forecaster to
        resize its effective reservation (expired runtimes are dropped,
        so check the event feed rather than live state)."""
        _, orch, _, _, _, _ = soak_run
        resized = {
            event.slice_id: event.data["new_fraction"]
            for event in orch.events.since(0)
            if event.event_type == "slice.reconfigured"
        }
        assert resized
        assert all(0.0 < fraction <= 1.0 for fraction in resized.values())


# ----------------------------------------------------------------------
# Multi-tenant concurrent churn through the batch install planner
# ----------------------------------------------------------------------

TENANTS = ("tenant-a", "tenant-b", "tenant-c")

#: Nightly-soak scale knobs (defaults match the per-push tier-1 run).
CHURN_CYCLES = int(os.environ.get("SOAK_CHURN_CYCLES", "6"))
BURST_SLICES = int(os.environ.get("SOAK_BURST_SLICES", "3"))


@pytest.fixture(scope="module")
def churn_run():
    """Admit/expire/heal cycles under bursty multi-tenant load: every
    2 h each tenant submits a burst into one broker window, the window
    flushes through the concurrent batch planner, and the 1.5 h slice
    lifetime frees the capacity before the next burst."""
    testbed = build_testbed(
        TestbedConfig(
            n_enbs=4,
            plmn_pool_size=max(24, 3 * len(TENANTS) * BURST_SLICES),
            edge_nodes=4,
            core_nodes=8,
        )
    )
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        config=OrchestratorConfig(
            monitoring_epoch_s=300.0,
            # Retain the whole run's feed, however hard the nightly
            # scale churns.
            event_log_capacity=max(16_384, 4_096 * CHURN_CYCLES),
        ),
        streams=RandomStreams(seed=7),
    )
    orch.start()
    broker = SliceBroker(orch, window_s=300.0, policy=KnapsackPolicy())
    submitted = []
    for cycle in range(CHURN_CYCLES):  # bursts at 0h, 2h, ..., (2N-2)h
        burst_time = cycle * 2 * HOUR + 1.0
        for tenant in TENANTS:
            for k in range(BURST_SLICES):
                request = make_request(
                    throughput_mbps=8.0 + 2.0 * (k % 3),
                    duration_s=1.5 * HOUR,
                    max_latency_ms=60.0,
                    tenant=tenant,
                    price=50.0 + 10.0 * (k % 3),
                )
                submitted.append(request)
                profile = ConstantProfile(
                    request.sla.throughput_mbps, level=0.5, noise_std=0.0
                )
                sim.schedule_at(
                    burst_time,
                    lambda r=request, p=profile: broker.submit(r, p),
                )
    # A link-failure window in the middle of the run; self-healing and
    # later bursts must both cope.
    topo = testbed.transport.topology
    midpoint = CHURN_CYCLES * HOUR  # middle of the 2h-per-cycle run
    sim.schedule_at(midpoint, lambda: topo.link("enb1-mmwave-fwd").fail())
    sim.schedule_at(midpoint + 0.5 * HOUR, lambda: topo.link("enb1-mmwave-fwd").restore())
    sim.run_until((2 * CHURN_CYCLES + 1) * HOUR)
    return testbed, orch, broker, submitted


class TestConcurrentChurn:
    def test_bursts_ran_through_the_batch_planner(self, churn_run):
        _, orch, _, _ = churn_run
        assert orch.planner.batches_run >= CHURN_CYCLES
        # Real fleet-scale batches, not degenerate single-slice loops.
        assert orch.planner.jobs_installed >= 2 * orch.planner.batches_run

    def test_churn_cycles_admitted_and_expired(self, churn_run):
        _, orch, _, submitted = churn_run
        states = [
            orch.slice(r.request_id.replace("req-", "slice-")).state
            for r in submitted
        ]
        # At least the baseline burst size per tenant must cycle all the
        # way to EXPIRED in (nearly) every cycle — oversize nightly
        # bursts may see knapsack losers, which is the point of churn.
        floor = len(TENANTS) * min(BURST_SLICES, 3) * max(1, CHURN_CYCLES - 2)
        assert states.count(SliceState.EXPIRED) >= floor
        # Churn means capacity was reusable: later bursts admitted too.
        assert orch.ledger.admissions >= floor

    def test_no_rollback_events_for_successful_installs(self, churn_run):
        """The deferred-rollback contract under concurrency: an install
        that ultimately succeeded must put zero ``driver.rollback``
        noise on the event feed (a retried candidate DC, for example,
        stays internal)."""
        _, orch, _, _ = churn_run
        events = orch.events.since(0)
        assert events[0].seq == 1, "event log overflowed; raise capacity"
        succeeded = set()
        for event in events:
            if event.event_type == "slice.admitted":
                succeeded.add(event.slice_id)
        for event in events:
            if event.event_type == "driver.rollback":
                assert event.slice_id not in succeeded, (
                    f"rollback event leaked for successful install "
                    f"{event.slice_id}"
                )

    def test_every_tenant_served(self, churn_run):
        _, orch, _, submitted = churn_run
        admitted_tenants = {
            r.tenant_id
            for r in submitted
            if orch.slice(r.request_id.replace("req-", "slice-")).state
            in (SliceState.ACTIVE, SliceState.EXPIRED, SliceState.DEPLOYING)
        }
        assert admitted_tenants == set(TENANTS)

    def test_no_physical_residue_after_churn(self, churn_run):
        testbed, orch, _, _ = churn_run
        for enb in testbed.ran.enbs():
            enb.grid.check_invariants()
        for link in testbed.transport.topology.links():
            assert link.effective_reserved_mbps <= link.capacity_mbps + 1e-6
        for dc in testbed.cloud.datacenters():
            for node in dc.nodes():
                node.check_invariants()
        # Every driver's reservation table matches the live slices.
        live = {s.slice_id for s in orch.live_slices()}
        for driver in orch.registry.drivers():
            tracked = {r.slice_id for r in driver.reservations()}
            assert tracked <= live, f"{driver.domain} leaked {tracked - live}"

    def test_healing_survived_the_burst_storm(self, churn_run):
        testbed, orch, _, _ = churn_run
        for network_slice in orch.active_slices():
            if network_slice.allocation is None:
                continue
            for lid in network_slice.allocation.transport.path.link_ids:
                assert testbed.transport.topology.link(lid).up


# ----------------------------------------------------------------------
# Control-plane observability under soak load
# ----------------------------------------------------------------------


class TestSoakObservability:
    """With ``REPRO_OBS_ENABLED=1`` (how the nightly soak runs), the
    churn scenario must leave the tracer settled — every span closed,
    nothing leaked across thousands of planner-thread hops — and the
    run's metrics/slow-trace snapshot is exported as a CI artifact
    when ``SOAK_OBS_DIR`` points somewhere."""

    def test_tracer_settled_after_churn(self, churn_run):
        _, orch, _, _ = churn_run
        if not orch.obs.enabled:
            pytest.skip("observability disabled (set REPRO_OBS_ENABLED=1)")
        status = orch.obs.tracer.status()
        assert status["spans_started"] == status["spans_finished"]
        assert orch.obs.tracer.active_span_count == 0
        # The soak actually exercised the pipeline stages.
        summary = orch.obs.stage_summary(["admission", "driver.commit"])
        assert summary["admission"]["count"] > 0
        assert summary["driver.commit"]["count"] > 0

    def test_artifacts_dumped_for_ci(self, churn_run):
        out_dir = os.environ.get("SOAK_OBS_DIR")
        if not out_dir:
            pytest.skip("SOAK_OBS_DIR not set")
        _, orch, _, _ = churn_run
        if not orch.obs.enabled:
            pytest.skip("observability disabled (set REPRO_OBS_ENABLED=1)")
        import json as _json

        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.prom")
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(orch.obs, sim_gauges(orch)))
        traces_path = os.path.join(out_dir, "slow_traces.json")
        with open(traces_path, "w", encoding="utf-8") as fh:
            _json.dump(
                {
                    "tracer": orch.obs.tracer.status(),
                    "slow_spans": orch.obs.tracer.slow_spans(),
                    "traces": orch.obs.tracer.traces(limit=10),
                },
                fh,
                indent=2,
                sort_keys=True,
            )
        assert os.path.getsize(metrics_path) > 0
        assert os.path.getsize(traces_path) > 0
