"""Scenario execution: compile spec → events, run, score.

The runner is the one harness that says "build a testbed, wire an
orchestrator, drive load, score it".  A scenario is the *sum of its
load sources*, run against the policies the
:class:`~repro.scenarios.spec.ScenarioSpec` names:

* ``spec.arrivals`` — Poisson slice requests
  (:meth:`RequestGenerator.drive` on the ``"arrivals"`` stream), the
  load behind the paper's admission, overbooking-gain and
  adaptive-budget figures;
* each tenant runs one **zone slice** per cell, sized to the zone's
  attached-user count (``clamp(min, base x users, max)``) — the
  scenario abstraction that turns *mobility* into *control-plane
  load*: the orchestrator is free to place the slice wherever its
  policies like, but its SLA follows the zone's population;
* every :class:`~repro.scenarios.mobility.HandoverEvent` moves one
  user between zones and re-dimensions the affected zone slices
  through :meth:`Orchestrator.modify_slice` (with hysteresis, so the
  commuter rush produces the characteristic rescale storm rather than
  per-user noise);
* the :class:`~repro.scenarios.failures.FailurePack` injects outages
  with restoration, and an epoch-aligned health poll watches
  ``TransportController.path_healthy`` to timestamp when *service*
  (not the physical link) converges — a re-routed path counts as
  healed even while the struck link is still down.

Everything is scheduled on the shared simulator in timestamp order and
scored into a :class:`~repro.scenarios.report.ScenarioReport` whose
digest is reproducible for (spec, seed).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.slices import SLA, ServiceType, SliceRequest, slice_id_for
from repro.drivers.base import DomainDriver, ReservationState
from repro.drivers.mock import MockDriver
from repro.experiments.testbed import Testbed, TestbedConfig, build_testbed
from repro.scenarios.failures import FailurePack
from repro.scenarios.mobility import HandoverEvent, build_model
from repro.scenarios.report import ScenarioReport
from repro.scenarios.spec import (
    ADMISSION_POLICIES,
    ARRIVAL_MIXES,
    ScenarioSpec,
    TenantSpec,
    build_named,
    parse_overbooking,
)
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.generator import RequestGenerator
from repro.traffic.patterns import ConstantProfile, TrafficProfile
from repro.transport.controller import TransportError

__all__ = ["ScenarioRunner", "run_named", "run_scenario"]

#: Zone slices outlive the horizon by a day so nothing expires mid-run —
#: the end-of-run audit can then assert live == admitted exactly.
_DURATION_MARGIN_S = 86_400.0


class ScenarioRunner:
    """Runs one :class:`ScenarioSpec` end-to-end on a fresh testbed
    (plus any ``extra_drivers``, each a
    :class:`~repro.drivers.base.DomainDriver`, else ``TypeError``)."""

    def __init__(
        self,
        spec: ScenarioSpec,
        extra_drivers: Optional[List[DomainDriver]] = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.streams = RandomStreams(seed=spec.seed)
        self.sim = Simulator()
        testbed_kwargs = dict(spec.testbed)
        testbed_kwargs.setdefault(
            "plmn_pool_size", max(12, len(spec.tenants) * spec.n_enbs + 4)
        )
        self.testbed: Testbed = build_testbed(
            TestbedConfig(n_enbs=spec.n_enbs, **testbed_kwargs)
        )
        for driver in extra_drivers or []:
            self.testbed.registry.register(driver)
        chaos = {
            driver.domain: driver
            for driver in self.testbed.registry.drivers()
            if isinstance(driver, MockDriver)
        }
        self.orchestrator = Orchestrator(
            sim=self.sim,
            allocator=self.testbed.allocator,
            registry=self.testbed.registry,
            plmn_pool=self.testbed.plmn_pool,
            admission=ADMISSION_POLICIES[spec.admission](),
            overbooking=parse_overbooking(spec.overbooking),
            config=OrchestratorConfig(
                monitoring_epoch_s=spec.epoch_s, **spec.orchestrator
            ),
            streams=self.streams,
        )
        self.report = ScenarioReport(
            name=spec.name,
            seed=spec.seed,
            horizon_s=spec.horizon_s,
            spec_json=spec.canonical_json(),
        )
        self.pack = FailurePack(
            self.sim,
            self.testbed.transport.topology,
            spec.failures,
            chaos_drivers=chaos,
            on_event=lambda event, f: self._note(event, f.kind, f.target),
        )
        # Engine-side zone state -----------------------------------------
        self._users_per_cell: List[int] = [0] * spec.n_enbs
        self._zone_slices: Dict[Tuple[str, int], Optional[str]] = {}
        self._zone_targets: Dict[Tuple[str, int], float] = {}
        self._expected_live: Set[str] = set()

    # ------------------------------------------------------------------
    # Timeline (digest input): sim-time events only, no wall clock.
    # ------------------------------------------------------------------
    def _note(self, kind: str, *detail) -> None:
        self.report.timeline.append([round(self.sim.now, 3), kind, *detail])

    # ------------------------------------------------------------------
    # Zone sizing
    # ------------------------------------------------------------------
    def _zone_mbps(self, tenant: TenantSpec, cell: int) -> float:
        demand = tenant.base_mbps_per_user * self._users_per_cell[cell]
        return round(min(tenant.max_mbps, max(tenant.min_mbps, demand)), 3)

    def _submit_zone_slices(self) -> None:
        for tenant in self.spec.tenants:
            service_type = ServiceType[tenant.service_type.upper()]
            for cell in range(self.spec.n_enbs):
                target = self._zone_mbps(tenant, cell)
                request_id = f"req-zone-{tenant.tenant_id}-c{cell}"
                request = SliceRequest(
                    tenant_id=tenant.tenant_id,
                    service_type=service_type,
                    sla=SLA(
                        throughput_mbps=target,
                        max_latency_ms=tenant.max_latency_ms,
                        duration_s=self.spec.horizon_s + _DURATION_MARGIN_S,
                    ),
                    price=tenant.price_per_slice,
                    penalty_rate=tenant.penalty_rate,
                    arrival_time=self.sim.now,
                    n_users=max(1, self._users_per_cell[cell]),
                    request_id=request_id,
                )
                profile = ConstantProfile(target, noise_std=0.02)
                decision = self.orchestrator.submit(request, profile)
                self.report.count(decision.admitted)
                key = (tenant.tenant_id, cell)
                if decision.admitted:
                    slice_id = slice_id_for(request_id)
                    self._zone_slices[key] = slice_id
                    self._zone_targets[key] = target
                    self._expected_live.add(slice_id)
                else:
                    self._zone_slices[key] = None
                self._note(
                    "submit", request_id, target, bool(decision.admitted)
                )

    # ------------------------------------------------------------------
    # Poisson arrivals
    # ------------------------------------------------------------------
    def _on_arrival(self, request: SliceRequest, profile: TrafficProfile) -> None:
        # Request ids come off a process-wide counter, so the timeline
        # names an arrival by what was asked, not by its id.
        decision = self.orchestrator.submit(request, profile)
        self.report.count(decision.admitted)
        self._note(
            "arrival",
            request.service_type.value,
            round(request.sla.throughput_mbps, 3),
            bool(decision.admitted),
        )

    # ------------------------------------------------------------------
    # Handovers → rescale storm
    # ------------------------------------------------------------------
    def _on_handover(self, event: HandoverEvent) -> None:
        started = perf_counter()
        self._users_per_cell[event.from_cell] -= 1
        self._users_per_cell[event.to_cell] += 1
        rescales = 0
        for tenant in self.spec.tenants:
            for cell in (event.from_cell, event.to_cell):
                rescales += self._maybe_rescale(tenant, cell)
        self.report.handovers += 1
        self.report.handover_latency_ms.append(
            (perf_counter() - started) * 1000.0
        )
        self._note(
            "handover", event.user, event.from_cell, event.to_cell, rescales
        )

    def _maybe_rescale(self, tenant: TenantSpec, cell: int) -> int:
        key = (tenant.tenant_id, cell)
        slice_id = self._zone_slices.get(key)
        if slice_id is None:
            return 0  # zone slice was rejected at admission; nothing to size
        target = self._zone_mbps(tenant, cell)
        current = self._zone_targets[key]
        if current > 0 and abs(target - current) / current < self.spec.rescale_hysteresis:
            return 0
        self.report.rescales_attempted += 1
        decision = self.orchestrator.modify_slice(slice_id, target)
        if decision.admitted:
            self._zone_targets[key] = target
            self.report.rescales_applied += 1
        else:
            # A grow that does not fit (or a resize across a struck
            # domain) leaves the slice unchanged — exactly the
            # congestion/outage pressure the score should show.
            self.report.rescales_rejected += 1
        self._note("rescale", slice_id, target, bool(decision.admitted))
        return 1

    # ------------------------------------------------------------------
    # Heal convergence poll
    # ------------------------------------------------------------------
    def _poll_health(self) -> None:
        active = self.orchestrator.active_slices()
        if not active:
            return
        transport = self.testbed.transport
        for network_slice in active:
            try:
                if not transport.path_healthy(network_slice.slice_id):
                    return
            except TransportError:
                return  # holds no path ⇒ not converged yet
        self.pack.note_all_healthy(self.sim.now)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        spec = self.spec
        started = perf_counter()
        self.orchestrator.start()
        if spec.tenants:
            timeline = build_model(spec.mobility).timeline(
                n_users=spec.mobility.n_users,
                n_cells=spec.n_enbs,
                horizon_s=spec.horizon_s,
                rng=self.streams.stream("mobility"),
            )
            timeline.validate()
            self._users_per_cell = timeline.users_per_cell_initial()
            self.sim.schedule_at(1.0, self._submit_zone_slices)
            for event in timeline.handovers:
                # Trace rows may start at t=0; keep every injected event
                # after the zone submits.
                at = max(event.time_s, 1.5)
                if at >= spec.horizon_s:
                    continue
                self.sim.schedule_at(at, lambda e=event: self._on_handover(e))
        if spec.arrivals:
            RequestGenerator(
                rng=self.streams.stream("arrivals"),
                arrival_rate_per_s=spec.arrivals.rate_per_s,
                mix=ARRIVAL_MIXES[spec.arrivals.mix](),
            ).drive(self.sim, spec.horizon_s, self._on_arrival)
        self.pack.schedule()
        if self.pack.records:
            # Poll just after each monitoring epoch (the heal pass runs
            # inside the epoch), so convergence lands on the epoch grid.
            poll_t = spec.epoch_s + 1.0
            while poll_t < spec.horizon_s:
                self.sim.schedule_at(poll_t, self._poll_health)
                poll_t += spec.epoch_s
        self.sim.run_until(spec.horizon_s)
        self.orchestrator.stop()
        self._score()
        self.report.wall_s = perf_counter() - started
        return self.report

    def _score(self) -> None:
        report = self.report
        orchestrator = self.orchestrator
        live_ids = {s.slice_id for s in orchestrator.live_slices()}
        report.lost_slices = sorted(self._expected_live - live_ids)
        leaked: List[str] = []
        for driver in self.testbed.registry.drivers():
            for reservation in driver.list_reservations():
                if reservation.slice_id not in live_ids:
                    leaked.append(f"{driver.domain}:{reservation.slice_id}")
                elif reservation.state is not ReservationState.COMMITTED:
                    leaked.append(
                        f"{driver.domain}:{reservation.slice_id}:"
                        f"{reservation.state.name.lower()}"
                    )
        report.leaked_reservations = sorted(leaked)
        monitor = orchestrator.fleet.sla_monitor
        report.sla_epochs = monitor.total_epochs
        report.sla_violations = monitor.total_violations
        report.outages = len(self.pack.records)
        report.outages_healed = sum(1 for r in self.pack.records if r.healed)
        report.heal_convergence_s = [
            r.convergence_s for r in self.pack.records
        ]
        report.outage_detail = [r.to_dict() for r in self.pack.records]
        report.repairs_performed = self.testbed.transport.repairs_performed
        report.events_processed = self.sim.events_processed
        report.final_active_slices = len(orchestrator.active_slices())
        ledger = orchestrator.ledger
        report.gross_revenue = ledger.gross_revenue
        report.total_penalties = ledger.total_penalties
        report.net_revenue = ledger.net_revenue
        report.mean_multiplexing_gain = orchestrator.fleet.gain_tracker.mean_gain()
        report.peak_multiplexing_gain = orchestrator.fleet.gain_tracker.peak_gain()


def run_scenario(
    spec: ScenarioSpec,
    extra_drivers: Optional[List[DomainDriver]] = None,
) -> ScenarioReport:
    """One-shot: build a runner for the spec and run it."""
    return ScenarioRunner(spec, extra_drivers=extra_drivers).run()


def run_named(name: str, seed: int = 0, **overrides) -> ScenarioReport:
    """Run a built-in pack at a seed (optionally overriding spec fields).

    Raises:
        ScenarioError: If the name (or an override field) is unknown.
    """
    spec = build_named(name, seed=seed)
    if overrides:
        spec = ScenarioSpec.from_dict({**spec.to_dict(), **overrides})
    return run_scenario(spec)
