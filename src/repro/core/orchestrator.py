"""End-to-end network slicing orchestrator.

The top of the Fig. 1 hierarchy.  Above the three domain controllers, it
closes the demo's loop — collect utilization → analyse/forecast →
optimize allocation → reconfigure the network → (repeat):

- **Admission control** (§1-i): a pluggable
  :class:`~repro.core.admission.AdmissionPolicy` judges each request
  against the live free-capacity vector, its demand already shrunk by
  the overbooking posture.
- **Multi-domain allocation** (§1-ii): the
  :class:`~repro.core.allocation.MultiDomainAllocator` plans RAN,
  transport and cloud, incl. edge/core selection and the latency split.
- **Monitoring, forecasting, dynamic reconfiguration** (§1-iii): a
  periodic epoch serves real demand, books SLA violations, and every few
  epochs resizes reservations to their forecasts (the *overbooking*
  step), freeing capacity for new slice requests.

This class coordinates: it handles requests (sizing, the calendar gate,
staging, both install entry points, advance bookings, quotas) and runs
the epoch's cross-cutting sequence.  Three decisions live behind one
module each (``docs/ARCHITECTURE.md``, "Module map"): each admitted
slice's lifecycle and the epoch's per-slice work in
:class:`~repro.core.epoch.LiveFleet`, the durable image in
:class:`~repro.store.image.DurableImage`, and the southbound unwind —
both install executors, resize and release — in :mod:`repro.drivers`,
over the uniform :class:`~repro.drivers.base.DomainDriver` contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    FcfsPolicy,
    ResourceVector,
    TenantQuota,
)
from repro.core.allocation import (
    AllocationError,
    MultiDomainAllocator,
    SliceSize,
    compose_allocation,
)
from repro.core.calendar import ResourceCalendar
from repro.core.epoch import LiveFleet, SliceRuntime
from repro.core.events import EventLog
from repro.drivers.adapters import build_default_registry
from repro.drivers.base import DomainSpec, DriverError, Reservation
from repro.drivers.planner import BatchInstallPlanner
from repro.drivers.registry import DriverRegistry
from repro.drivers.transaction import InstallJob, InstallOutcome, install_sequentially
from repro.core.forecasting import Forecaster, HoltWintersForecaster
from repro.core.overbooking import NoOverbooking, OverbookingPolicy
from repro.core.pricing import RevenueLedger
from repro.core.slices import (
    NetworkSlice,
    PlmnPool,
    PlmnPoolExhausted,
    SliceIndex,
    SliceRequest,
    SliceState,
)
from repro.obs import NOOP_OBS, ControlPlaneObservability, enabled_by_env
from repro.ran.controller import PlannedCellLoad
from repro.sim.engine import Simulator
from repro.store.image import DurableImage
from repro.store.store import ControlPlaneStore, NullStore, open_store
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import TrafficProfile


class OrchestratorError(RuntimeError):
    """Raised on orchestrator misuse."""


@dataclass
class OrchestratorConfig:
    """Tunables of the orchestration loop.

    Attributes:
        monitoring_epoch_s: Telemetry/SLA-check period (the demo's
            "real-time monitoring" cadence).
        reconfig_every_epochs: Forecast + resize every N epochs.
        deploy_time_s: Seconds between admission and ACTIVE ("after few
            seconds, user devices ... are allowed to connect").
        min_history_for_forecast: Demand samples required before the
            forecaster is trusted for overbooking.
        simulate_ues: Create UE populations and run attach procedures
            (disable for large parameter sweeps).
        max_ues_per_slice: Cap on simulated UEs per slice.
        self_healing: Re-route slices whose transport path traverses a
            failed link (checked every monitoring epoch).
        respect_calendar: Check admission against the advance-reservation
            calendar ("accounting for ... upcoming requests", paper §2).
            Disabled only by the D11 ablation, which quantifies the
            promise-breaking a myopic broker causes.
        event_log_capacity: Retention of the northbound event feed
            (``GET /v1/events``); oldest events are evicted beyond it.
        durability_dir: Root directory of the durable control-plane
            store (write-ahead journal + snapshots, :mod:`repro.store`).
            ``None`` (the default) keeps the control plane memory-only;
            set, every state transition is journaled before it is
            acknowledged, so a restart loses no slice.
        checkpoint_every_records: Auto-checkpoint threshold — once this
            many journal records accumulate past the latest snapshot,
            the monitoring loop writes a full-state snapshot and
            compacts the journal (bounding recovery time by
            churn-since-checkpoint, the gap benchmark D12 measures).
            ``0`` disables auto-checkpoints.
        journal_fsync_every: Journal group-commit size: fsync every N
            appended records (every append is still flushed to the OS
            immediately).  ``1`` = fully synchronous, ``0`` = never
            fsync.  A record is one state transition, its feed event
            included, so N bounds the transitions a power loss can take.
        shard_id: Position of this orchestrator in a sharded control
            plane (:mod:`repro.cluster`).  When set together with
            ``durability_dir``, the store namespaces itself under
            ``<durability_dir>/shard-<id>/`` so every shard owns its
            own journal + snapshot family (and a warm standby can tail
            exactly one shard's WAL).  ``None`` (the default) keeps the
            single-process layout.
        observability: Switch for :mod:`repro.obs`: tracing spans from
            admission through per-domain prepare/commit to the journal and
            event emission, per-stage latency histograms, and the
            ``GET /v1/admin/metrics`` / ``/v1/admin/traces`` surfaces.
            Defaults to the ``REPRO_OBS_ENABLED=1`` flag (i.e. off); off,
            every instrumentation point resolves to a shared no-op
            singleton — no allocation, no locks, no timing.
        observability_slow_span_ms: Spans at least this slow (wall
            clock) are retained in the slow-op audit log with their
            full ancestry.
    """

    monitoring_epoch_s: float = 60.0
    reconfig_every_epochs: int = 5
    deploy_time_s: float = 3.0
    min_history_for_forecast: int = 12
    simulate_ues: bool = False
    max_ues_per_slice: int = 8
    self_healing: bool = True
    respect_calendar: bool = True
    event_log_capacity: int = 1024
    durability_dir: Optional[str] = None
    checkpoint_every_records: int = 512
    journal_fsync_every: int = 16
    shard_id: Optional[int] = None
    observability: bool = field(default_factory=enabled_by_env)
    observability_slow_span_ms: float = 250.0


class Orchestrator:
    """The end-to-end slice orchestrator of the demo."""

    def __init__(
        self,
        sim: Simulator,
        allocator: MultiDomainAllocator,
        plmn_pool: Optional[PlmnPool] = None,
        admission: Optional[AdmissionPolicy] = None,
        overbooking: Optional[OverbookingPolicy] = None,
        forecaster_factory: Optional[Callable[[], Forecaster]] = None,
        config: Optional[OrchestratorConfig] = None,
        streams: Optional[RandomStreams] = None,
        registry: Optional[DriverRegistry] = None,
        store: Optional["ControlPlaneStore | NullStore"] = None,
    ) -> None:
        self.sim = sim
        self.allocator = allocator
        # Southbound: every lifecycle operation goes through the driver
        # registry; the default wires adapters over the allocator's
        # controllers (RAN → transport → cloud → EPC, in install order).
        self.registry = registry or build_default_registry(allocator)
        self.plmn_pool = plmn_pool or PlmnPool(size=12)
        self.admission = admission or FcfsPolicy()
        self.overbooking = overbooking or NoOverbooking()
        self.config = config or OrchestratorConfig()
        if self.config.monitoring_epoch_s <= 0:
            raise OrchestratorError(f"monitoring_epoch_s {self.config.monitoring_epoch_s} <= 0")
        self.streams = streams or RandomStreams(seed=0)
        # Control-plane observability (repro.obs): spans + histograms
        # across the install pipeline.  Disabled (the default) resolves
        # to the shared no-op singleton — zero per-call allocation.
        self.obs: Any = (
            ControlPlaneObservability(slow_span_ms=self.config.observability_slow_span_ms)
            if self.config.observability else NOOP_OBS
        )
        self.ledger = RevenueLedger()
        self.events = EventLog(capacity=self.config.event_log_capacity)
        self.events.obs = self.obs
        self.calendar = ResourceCalendar(allocator.aggregate_capacity_vector())
        #: Leader lease of a sharded deployment (duck-typed — anything
        #: with ``heartbeat() -> bool``; see :mod:`repro.cluster.lease`).
        #: Refreshed every monitoring epoch; a failed refresh means a
        #: standby promoted itself over us, and we fence (stop durable
        #: writes) instead of split-braining the shard's WAL.
        self.lease: Optional[Any] = None
        #: The one tenant quota table: written by :meth:`set_quota`
        #: (journaled), refilled by recovery; the service layer enforces it.
        self.quotas: Dict[str, TenantQuota] = {}
        #: Advance bookings promised and not yet installed:
        #: ``request_id -> (request, start_time)`` (journaled, so the
        #: promises survive a restart).
        self._pending_advance: Dict[str, Tuple[SliceRequest, float]] = {}
        # Fleet-scale installs: admission bursts (broker windows, a
        # recovery's queued admissions) run through the event-driven
        # async batch planner instead of looping slice-by-slice.
        self.planner = BatchInstallPlanner(self.registry, obs=self.obs)
        #: The journal hooks and the durable state they fold.
        self.durable = DurableImage(NullStore(), sim)
        # Durable control plane: every state transition is journaled
        # (write-ahead) before it is acknowledged; a NullStore makes
        # all of this free when no durability_dir is configured.
        self.attach_store(store if store is not None else open_store(
            self.config.durability_dir,
            fsync_every=self.config.journal_fsync_every,
            checkpoint_every=self.config.checkpoint_every_records,
            shard_id=self.config.shard_id,
        ))
        #: Every slice record, and the ``slice_id``-sorted views
        #: ``GET /v1/slices`` pages are cut from.
        self.slice_index = SliceIndex()
        #: The live slices: their lifecycle and the epoch's per-slice work.
        self.fleet = LiveFleet(
            sim, allocator, self.registry, self.events, self.ledger, self.config,
            self.obs, self.streams, calendar=self.calendar, plmn_pool=self.plmn_pool,
            index=self.slice_index, durable=self.durable,
            forecaster_factory=forecaster_factory
            or (lambda: HoltWintersForecaster(season_length=24)),
        )
        self._epoch_counter = 0
        self._running = self._stopped = False  # only stop() sets _stopped

    # ------------------------------------------------------------------
    # Lifecycle of the orchestrator itself
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic monitoring loop, its first epoch one period
        out (a second call is a no-op)."""
        if not self._running:
            self._running = True
            self.streams.stream("demand-noise")  # the epochs' shared stream, made before the first
            self.sim.schedule(self.config.monitoring_epoch_s, self._epoch_tick)

    def attach_store(self, store: "ControlPlaneStore | NullStore") -> None:
        """Journal through ``store`` from here on: the constructor's, or the
        one a standby's ready plane, built over a :class:`NullStore`, opens
        at its promotion over the standby's index of the journal."""
        self.store = self.durable.store = store
        self.durable.floor_lsn = store.last_lsn
        store.bind_obs(self.obs)
        if store.enabled:
            # Events no transition raises (SLA violations, repairs, driver
            # incidents) are journaled on their own; the rest ride in their
            # transition's record.
            self.events.sink = self.durable.journal_event
            self.planner.on_record = self.durable.journal_driver_record

    def attach_lease(self, lease: Any) -> None:
        """Adopt a leader lease (sharded deployments): the monitoring
        loop refreshes it every epoch and fences this process — closes
        the durable store, dropping all further writes — the moment the
        refresh fails because another worker took the shard over."""
        self.lease = lease

    def stop(self) -> None:
        """Halt this control plane as a process death does: no epoch and
        no timer on its clock fires again.  The pending timers were the
        only references back to it, so the plane its owner drops next
        is freed by reference counting.  A batch it was stopped inside
        settles nothing more: its outcomes are answered, never booked."""
        self._running = False
        self._stopped = True
        self.sim.clear()

    # ------------------------------------------------------------------
    # Recovery support
    # ------------------------------------------------------------------
    def build_recovered_slices(self, adoptions: Iterable[tuple]) -> List[NetworkSlice]:
        """Build, as one batch and in order, the slices a recovery re-adopts
        (:meth:`~repro.core.epoch.LiveFleet.restore`: each ``(request,
        plmn_id, fraction, admitted_at, active_at, window)`` as journaled,
        a missing window promised from the admission).  Nothing
        southbound is bound and nothing journaled: recovery binds the
        drivers' live reservations once it has listed them
        (``LiveFleet.bind``), and its ``recovery.rebased`` record is the
        adoption's one durable statement."""
        return self.fleet.restore(adoptions, self._promise_end)

    def restore_advance_booking(self, request: SliceRequest, *, start_in_s: float) -> None:
        """Re-promise a journaled advance booking after a restart.

        Unlike :meth:`submit_advance` this performs **no** feasibility
        check — the promise was already made (and charged for) before
        the crash; recovery must honour it, not re-litigate it.
        """
        start_time = self.sim.now + max(start_in_s, 0.0)
        if self.config.respect_calendar and not self.calendar.has(request.request_id):
            self.calendar.commit(
                request.request_id,
                start_time,
                self._promise_end(request, start_time),
                self._size(request).demand,
            )
        self._schedule_advance_install(request, self.fleet.default_profile(request), start_time)

    def _schedule_advance_install(
        self, request: SliceRequest, profile: TrafficProfile, start_time: float
    ) -> None:
        """Record a promised advance booking (the pending table + the
        ``booking.committed`` journal record) and schedule its install
        for ``start_time`` — shared by :meth:`submit_advance` and
        :meth:`restore_advance_booking`, which differ only in whether
        the promise is checked first."""
        self._pending_advance[request.request_id] = (request, start_time)
        self.durable.journal(
            "booking.committed",
            request=request,
            start_time=start_time,
        )

        def install() -> None:
            if self._pending_advance.pop(request.request_id, None) is None:
                return  # booking was cancelled before its start time
            self.install_admitted(request, profile)

        self.sim.schedule_at(start_time, install)

    # ------------------------------------------------------------------
    # Request handling (dashboard "request a slice" button)
    # ------------------------------------------------------------------
    def _size(self, request: SliceRequest) -> SliceSize:
        """A brand-new slice's size (no history yet): the policy's
        cold-start posture on the nominal throughput, applied to the
        request's multi-domain demand."""
        decision = self.overbooking.decide(
            request.request_id, request.sla.throughput_mbps, forecaster=None
        )
        return self.allocator.size(request, decision.fraction)

    def size_window(
        self, requests: List[SliceRequest]
    ) -> Tuple[List[SliceSize], ResourceVector]:
        """Sizes of a whole decision window, and the fleet-wide free
        capacity a batch policy judges them against.  One policy call
        covers every request, so forecast-driven policies run their
        (shared) quantile math once per window, not once per request."""
        decisions = self.overbooking.decide_window(
            [(r.request_id, r.sla.throughput_mbps) for r in requests],
            forecaster=None,
        )
        sizes = [
            self.allocator.size(request, decision.fraction)
            for request, decision in zip(requests, decisions)
        ]
        return sizes, self.allocator.aggregate_free_vector()

    def _promise_end(self, request: SliceRequest, start: float) -> float:
        """End of the calendar window promised to a slice admitted (or
        booked to start) at ``start``: SLA duration plus deploy time."""
        return start + request.sla.duration_s + self.config.deploy_time_s

    def calendar_gate(
        self,
        request: SliceRequest,
        size: SliceSize,
        start_time: Optional[float] = None,
        hold: bool = True,
    ) -> Optional[str]:
        """The calendar gate — "accounting for ... upcoming requests"
        (paper §2): a slice must not consume capacity promised to others
        anywhere in its own promise window, which opens now, or at
        ``start_time`` for an advance booking.  Returns the refusal
        reason, or ``None``: the window fits, and unless ``hold`` is off
        (what-if) the request holds it from this moment, against the
        next one judged — going live keeps it, a failed install
        frees it.  With ``respect_calendar`` off (D11's myopic broker)
        nothing is checked or held."""
        if not self.config.respect_calendar:
            return None
        start = self.sim.now if start_time is None else start_time
        end = self._promise_end(request, start)
        if not self.calendar.fits(size.demand, start, end):
            return (
                "conflicts with advance reservations on the calendar"
                if start_time is None
                else "insufficient projected capacity over the booking window"
            )
        if hold:
            self.calendar.commit(request.request_id, start, end, size.demand)
        return None

    def submit(self, request: SliceRequest, profile: TrafficProfile) -> AdmissionDecision:
        """Online admission + allocation for one slice request.

        Returns the admission decision; on acceptance the slice is
        ADMITTED immediately and becomes ACTIVE ``deploy_time_s`` later.
        """
        size = self._size(request)
        free = self.allocator.free_vector()
        with self.obs.timed("admission", label="sync"):
            decision = self.admission.decide(request, size.demand, free)
        if not decision.admitted:
            return self.reject(request, decision.reason)
        refusal = self.calendar_gate(request, size)
        if refusal is not None:
            return self.reject(request, refusal)
        return self.install_admitted(request, profile, size)

    def submit_advance(
        self,
        request: SliceRequest,
        profile: TrafficProfile,
        start_time: float,
    ) -> AdmissionDecision:
        """Book a slice that should start at a *future* instant.

        Admission checks the resource calendar over the slice's whole
        lifetime (ongoing slices + already-promised bookings); accepted
        bookings are committed to the calendar immediately and installed
        when ``start_time`` arrives.  An install-time allocation failure
        (e.g. a fragmentation race) is booked as a rejection then.

        Raises:
            OrchestratorError: If ``start_time`` is in the past.
        """
        if start_time < self.sim.now:
            raise OrchestratorError(
                f"advance booking must start in the future "
                f"(start={start_time}, now={self.sim.now})"
            )
        refusal = self.calendar_gate(request, self._size(request), start_time)
        if refusal is not None:
            return self.reject(request, refusal)
        self._schedule_advance_install(request, profile, start_time)
        return AdmissionDecision(
            request_id=request.request_id,
            admitted=True,
            reason=f"booked for t={start_time:.0f}s",
            expected_value=request.price,
        )

    def pending_bookings(self) -> Mapping[str, Tuple[SliceRequest, float]]:
        """Advance bookings promised and not yet installed — made here,
        or re-promised by recovery: ``request_id -> (request,
        start_time)``, a read-only view."""
        return MappingProxyType(self._pending_advance)

    def cancel_advance(self, request_id: str) -> None:
        """Withdraw an advance booking before its start time.

        Frees the calendar window immediately; the already-scheduled
        install event fires harmlessly (it checks the pending record).

        Raises:
            OrchestratorError: If no such booking is pending (unknown
                id, or its install already fired).
        """
        pending = self._pending_advance.pop(request_id, None)
        if pending is None:
            raise OrchestratorError(f"no pending advance booking {request_id}")
        request, start_time = pending
        if self.calendar.has(request_id):
            self.calendar.release(request_id)
        event = self.events.append(
            self.sim.now, "booking.cancelled", None, request.tenant_id,
            booking_id=request_id, start_time=start_time,
        )
        self.durable.journal("booking.cancelled", event, request_id=request_id)

    def set_quota(
        self,
        tenant_id: str,
        max_active_slices: Optional[int] = None,
        max_aggregate_mbps: Optional[float] = None,
    ) -> TenantQuota:
        """Install (or replace) a tenant's quota — journaled, so the
        ceiling survives a restart and a promotion."""
        quota = TenantQuota(max_active_slices, max_aggregate_mbps)
        self.quotas[tenant_id] = quota
        self.durable.journal(
            "quota.set",
            tenant_id=tenant_id,
            max_active_slices=max_active_slices,
            max_aggregate_mbps=max_aggregate_mbps,
        )
        return quota

    def reject(self, request: SliceRequest, reason: str) -> AdmissionDecision:
        """Record a rejection (admission said no, or the broker dropped it)."""
        return self._book_install_rejection(self._register(request), reason)

    def _register(self, request: SliceRequest) -> NetworkSlice:
        """A new slice record for ``request``, in the slice index."""
        network_slice = NetworkSlice(request)
        self.slice_index.add((network_slice,))
        return network_slice

    def _book_install_rejection(
        self, network_slice: NetworkSlice, reason: str, **record: Any
    ) -> AdmissionDecision:
        """Bookkeeping shared by every refusal — admission said no, or
        an install failed after it said yes: free the PLMN and the
        calendar window (if held), record the rejection and its event.
        ``record`` fields (a failed batched job's driver ``trail``) ride
        in the same journal record."""
        request = network_slice.request
        slice_id = network_slice.slice_id
        if network_slice.plmn is not None:
            self.plmn_pool.release(slice_id)
            network_slice.plmn = None
        if self.calendar.has(request.request_id):
            self.calendar.release(request.request_id)
        self.slice_index.transition(network_slice, SliceState.REJECTED, self.sim.now)
        self.ledger.book_rejection(request)
        event = self.events.append(
            self.sim.now, "slice.rejected", slice_id, request.tenant_id, reason=reason
        )
        self.durable.journal(
            "slice.rejected", event, request_id=request.request_id,
            slice_id=slice_id, reason=reason, **record,
        )
        return AdmissionDecision(
            request_id=request.request_id,
            admitted=False,
            reason=reason,
            slice_id=slice_id,
        )

    def _stage_install(
        self,
        request: SliceRequest,
        size: Optional[SliceSize],
        planned_cells: Optional[Dict[str, PlannedCellLoad]] = None,
        span_parent: Any = None,
    ) -> "Tuple[NetworkSlice, SliceSize, List[Dict[str, DomainSpec]], Any] | AdmissionDecision":
        """Stage one already-admitted request for either executor: the
        slice record, its PLMN identity, the allocator's install plan
        (one full spec map per candidate DC) and the ``install.started``
        WAL record.  Returns ``(slice, size, attempts, job span)``; a
        request that staging already rules out (PLMN pool exhausted, no
        cell, no feasible DC) is booked as a rejection and that decision
        is returned instead.

        ``size`` is the one the request was judged on (:meth:`submit`, a
        broker window); ``None`` — an advance booking firing, a
        re-admission — sizes it here.  ``span_parent`` (the batch span's
        context) opens the batched path's per-job span with its
        admission/placement stages; the single-request path passes none.
        """
        obs = self.obs if span_parent is not None else NOOP_OBS
        network_slice = self._register(request)
        job_span = obs.span(
            "install.job", parent=span_parent, slice_id=network_slice.slice_id
        )
        # Admission stage: PLMN identity (MOCN: a slice cannot exist
        # without one) + the cold-start size, unless carried in.
        # Placement stage: cell probe + candidate-DC ranking.
        stage_span = obs.span("admission", parent=job_span.context)
        try:
            network_slice.plmn = self.plmn_pool.allocate(network_slice.slice_id)
            if size is None:
                size = self._size(request)
            stage_span.finish()
            stage_span = obs.span("placement", parent=job_span.context)
            attempts = self.allocator.install_attempts(
                network_slice, size, self.registry.domains(), planned_cells
            )
            stage_span.finish()
        except (PlmnPoolExhausted, AllocationError) as exc:
            stage_span.finish("error", error=str(exc))
            job_span.finish("error", error=str(exc))
            return self._book_install_rejection(network_slice, str(exc))
        self.durable.journal(
            "install.started",
            request=request,
            slice_id=network_slice.slice_id,
            plmn=network_slice.plmn.plmn_id,
            fraction=size.fraction,
        )
        return network_slice, size, attempts, job_span

    def install_admitted(
        self, request: SliceRequest, profile: TrafficProfile, size: Optional[SliceSize] = None
    ) -> AdmissionDecision:
        """Install a slice whose admission decision was already positive
        — :meth:`submit`'s, with the ``size`` it judged; an advance
        booking's promise or an external broker's — on the calling
        thread, through the single-request executor.

        The install can still fail on PLMN exhaustion, an allocation
        race or a driver refusal; such failures are booked as rejections.
        """
        staged = self._stage_install(request, size)
        if isinstance(staged, AdmissionDecision):
            return staged
        network_slice, size, attempts, job_span = staged
        job = InstallJob(
            network_slice.slice_id, attempts, partial(self._validate_latency, network_slice)
        )
        return self._settle(
            network_slice, profile, size, job_span, install_sequentially(self.registry, job)
        )

    def install_admitted_batch(
        self,
        admissions: List[Tuple[SliceRequest, TrafficProfile]],
        *,
        sizes: Optional[List[SliceSize]] = None,
    ) -> List[AdmissionDecision]:
        """Install a *batch* of already-admitted slices concurrently.

        Placement planning (PLMN identity, ingress cell, candidate DCs)
        runs sequentially on the calling thread against a point-in-time
        capacity snapshot; the southbound prepare/commit work — where a
        real deployment spends its seconds — then runs through the
        concurrent batch planner.  Two jobs planned onto the same scarce
        resource race like any concurrent installer's would: the loser's
        prepare fails, its job unwinds with zero residue, and the slice
        is booked as rejected.  A hung domain delays (or, under its
        ``DriverCapabilities.operation_timeout_s``, cleanly fails) only
        the jobs that touched it.

        Decisions are returned in submission order, each settled as a
        single install's is (:meth:`_settle`).  ``sizes`` (one per
        admission) are what a broker window already judged the batch on;
        without them each request is sized as it is staged.
        """
        batch_span = self.obs.span("install.batch", jobs=len(admissions))
        results: List[Optional[AdmissionDecision]] = [None] * len(admissions)
        jobs: List[InstallJob] = []
        staged: Dict[int, Tuple[NetworkSlice, TrafficProfile, SliceSize, Any]] = {}
        # Every job is planned against one capacity snapshot, so picks
        # must see the load the earlier picks staged (otherwise a burst
        # of winners all pins the same "best" cell and the losers fail
        # at prepare time instead of spreading across the fleet).
        planned_cells: Dict[str, PlannedCellLoad] = {}
        for index, (request, profile) in enumerate(admissions):
            staged_install = self._stage_install(
                request,
                sizes[index] if sizes is not None else None,
                planned_cells,
                span_parent=batch_span.context,
            )
            if isinstance(staged_install, AdmissionDecision):
                results[index] = staged_install
                continue
            network_slice, size, attempts, job_span = staged_install
            staged[index] = (network_slice, profile, size, job_span)
            jobs.append(
                InstallJob(
                    slice_id=network_slice.slice_id,
                    attempts=attempts,
                    validate=partial(self._validate_latency, network_slice),
                    tag=index,
                    # The job span's context rides through the planner's
                    # state machine so every per-domain prepare/commit
                    # span parents here.
                    span_context=job_span.context,
                )
            )
        for outcome in self.planner.install(jobs):
            results[outcome.job.tag] = self._settle(*staged[outcome.job.tag], outcome)
        self._drain_planner_events()
        batch_span.finish()
        assert all(decision is not None for decision in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Southbound: the drivers unwind (repro.drivers.transaction); the
    # lifecycle's books follow what they did
    # ------------------------------------------------------------------
    def _settle(
        self,
        network_slice: NetworkSlice,
        profile: TrafficProfile,
        size: SliceSize,
        job_span: Any,
        outcome: InstallOutcome,
    ) -> AdmissionDecision:
        """Book either executor's install outcome.  Failed: the rollback
        notices its executor held surface on the feed and the slice is
        rejected.  Acknowledged: the ledger account, the fleet's go-live
        and the ``slice.installed`` WAL record carrying the
        ``slice.admitted`` event.  A batched job's southbound trail —
        every landed prepare/commit/rollback/release of every attempt,
        in landing order — rides in the record that settles it (never
        folded on replay), and its job span hangs the journal stage
        under its trace; the single-request path's span is a no-op."""
        request = network_slice.request
        if self._stopped:  # stopped inside its batch: the drivers' word, no books
            verdict = "installed" if outcome.ok else str(outcome.error)
            return AdmissionDecision(request.request_id, outcome.ok, verdict,
                                     slice_id=network_slice.slice_id)
        record = {} if outcome.trail is None else {"trail": outcome.trail}
        if not outcome.ok:
            for domain, reservation, reason in outcome.rollbacks:
                self.events.emit(
                    self.sim.now, "driver.rollback", slice_id=reservation.slice_id,
                    tenant_id=reservation.spec.tenant_id, domain=domain, reason=reason,
                )
            decision = self._book_install_rejection(network_slice, str(outcome.error), **record)
            job_span.finish("error", error=str(outcome.error))
            return decision
        reservations = outcome.reservations
        self.ledger.book_admission(network_slice.slice_id, request)
        now, old = self.sim.now, network_slice.state
        self.fleet.go_live([(network_slice, profile, size, reservations, now, None,
                             (now, self._promise_end(request, now)))])
        self.slice_index.move(network_slice, old)
        # WAL: the install is durable from here — a crash after this
        # record must re-adopt the slice, not forfeit it.
        booking = self.calendar.get(request.request_id)  # go_live saw to it
        obs = self.obs if job_span.context is not None else NOOP_OBS
        with obs.span("journal", parent=job_span.context):
            self.durable.journal(
                "slice.installed",
                self.events.append(
                    self.sim.now, "slice.admitted", network_slice.slice_id,
                    request.tenant_id, price=request.price,
                ),
                request=request,
                slice_id=network_slice.slice_id,
                plmn=network_slice.plmn.plmn_id if network_slice.plmn else None,
                fraction=size.fraction,
                reservations={d: r.reservation_id for d, r in reservations.items()},
                window=[booking.start, booking.end],
                **record,
            )
        job_span.finish()
        return AdmissionDecision(
            request_id=request.request_id,
            admitted=True,
            reason="installed",
            expected_value=request.price,
            slice_id=network_slice.slice_id,
        )

    def _validate_latency(
        self, network_slice: NetworkSlice, reservations: Dict[str, Reservation]
    ) -> None:
        """Never commit a latency-violating end-to-end allocation."""
        allocation = compose_allocation(reservations)
        if allocation is None:
            return
        bound = network_slice.request.sla.max_latency_ms
        if allocation.total_latency_ms > bound + 1e-9:
            raise DriverError(
                "orchestrator",
                f"allocation latency {allocation.total_latency_ms:.2f} ms "
                f"exceeds SLA {bound:.2f} ms",
            )

    def terminate_early(self, slice_id: str, refund: bool = True) -> float:
        """Tenant-initiated teardown of an ACTIVE slice.

        Optionally refunds the unused fraction of the slice's price
        (pro-rata on remaining duration).  Returns the refund amount.

        Raises:
            OrchestratorError: If the slice is not ACTIVE.
        """
        runtime = self.fleet.runtimes.get(slice_id)
        if runtime is None or runtime.network_slice.state is not SliceState.ACTIVE:
            raise OrchestratorError(f"slice {slice_id} is not active")
        network_slice = runtime.network_slice
        amount = 0.0
        if refund and network_slice.active_at is not None:
            served = self.sim.now - network_slice.active_at
            total = network_slice.request.sla.duration_s
            unused = max(0.0, 1.0 - served / total)
            amount = network_slice.request.price * unused
            self.ledger.book_refund(slice_id, amount)
        self.fleet.expire(slice_id)
        return amount

    def cancel(self, slice_id: str, refund: bool = True) -> float:
        """Tenant-initiated cancellation of a slice that is not yet ACTIVE.

        An ADMITTED/DEPLOYING slice has committed resources but serves no
        traffic yet, so cancelling releases everything and (optionally)
        refunds the full price.  The already-scheduled activation event
        fires harmlessly: the fleet's activation ignores a slice whose
        runtime is gone.  Returns the refund amount.

        Raises:
            OrchestratorError: If the slice is unknown or already ACTIVE
                (use :meth:`terminate_early`) or terminal.
        """
        runtime = self.fleet.runtimes.get(slice_id)
        if runtime is None or runtime.network_slice.state not in (
            SliceState.ADMITTED,
            SliceState.DEPLOYING,
        ):
            raise OrchestratorError(f"slice {slice_id} is not pending activation")
        # Refund first, as terminate_early does: the one step that can
        # refuse must leave the slice whole.
        amount = 0.0
        if refund:
            amount = runtime.network_slice.request.price
            self.ledger.book_refund(slice_id, amount)
        self.fleet.retire(runtime, SliceState.CANCELLED, refund=amount)
        return amount

    def what_if(self, request: SliceRequest) -> dict:
        """Evaluate a hypothetical request without committing anything.

        The demo dashboard "checks the infrastructure resources
        availability in each domain" before a tenant confirms; this is
        that probe.  Returns a per-domain feasibility report plus the
        overall admission verdict the request would receive right now.
        """
        size = self._size(request)
        shrunk = size.demand
        free = self.allocator.free_vector()
        report: dict = {
            "request_id": request.request_id,
            "effective_fraction": size.fraction,
            "demand": {"prbs": shrunk.prbs, "mbps": shrunk.mbps, "vcpus": shrunk.vcpus},
        }
        # Per-domain availability, off the probe an install would plan from.
        enb_id, _, candidate_dcs = self.allocator.probe(request, size)
        report["ran"] = {"feasible": enb_id is not None, "enb": enb_id}
        report["cloud"] = {
            "feasible": bool(candidate_dcs),
            "candidate_dcs": [dc.dc_id for dc in candidate_dcs],
        }
        report["transport"] = {"feasible": bool(candidate_dcs)}
        decision = self.admission.decide(request, shrunk, free)
        calendar_ok = self.calendar_gate(request, size, hold=False) is None
        report["calendar"] = {"feasible": calendar_ok}
        report["would_admit"] = bool(
            decision.admitted and candidate_dcs and calendar_ok
            and self.plmn_pool.available > 0
        )
        report["plmn_available"] = self.plmn_pool.available
        return report

    def modify_slice(self, slice_id: str, new_throughput_mbps: float) -> AdmissionDecision:
        """Tenant-requested scaling of an ACTIVE slice's throughput SLA.

        On success the slice keeps its cell, path, vEPC and PLMN; only
        the reservations (and the tenant's traffic profile peak) change.
        The price is *not* re-negotiated — pricing policy is out of the
        demo's scope.

        Returns:
            An admission-style decision (admitted=False if the grow does
            not fit; the slice then continues unchanged).
        """
        runtime = self.fleet.runtimes.get(slice_id)
        if runtime is None or runtime.network_slice.state is not SliceState.ACTIVE:
            return AdmissionDecision(request_id=slice_id, admitted=False, reason="slice not active")
        try:
            self.fleet.rescale(runtime, new_throughput_mbps)
        except DriverError as exc:
            return AdmissionDecision(
                request_id=slice_id, admitted=False, reason=str(exc)
            )
        return AdmissionDecision(
            request_id=slice_id,
            admitted=True,
            reason=f"rescaled to {new_throughput_mbps:.1f} Mb/s",
        )

    # ------------------------------------------------------------------
    # Monitoring + reconfiguration loop (its per-slice work: LiveFleet)
    # ------------------------------------------------------------------
    def _epoch_tick(self) -> None:
        self._monitoring_epoch()
        if self._running:  # a stop inside the epoch ends the loop
            self.sim.schedule(self.config.monitoring_epoch_s, self._epoch_tick)

    def _monitoring_epoch(self) -> None:
        obs = self.obs
        epoch_started = perf_counter() if obs.enabled else None
        if epoch_started is not None:
            obs.gauge_set("queue.stuck_releases", float(len(self.fleet.releases.stuck)))
        self._epoch_counter += 1
        now = self.sim.now
        # Leader lease first: journaling anything after losing the
        # shard would interleave a deposed leader's records with the
        # promoted standby's WAL.
        if self.lease is not None and not self.lease.heartbeat():
            self.store.close(sync=False)  # fenced: same semantics as a crash
            self.events.emit(now, "lease.fenced", shard_id=self.config.shard_id)
            self.lease = None
        # Durable heartbeat: recovery rebases lifecycle clocks against
        # the newest journaled time, so an idle control plane must
        # still bound its crash-time estimate to one epoch.
        self.durable.journal("clock.tick", epoch=self._epoch_counter)
        # Late stragglers are compensated (a walled one only now, at
        # this drain) and surface as events.
        self._drain_planner_events()
        active = self.fleet.epoch(self.streams.stream("demand-noise"), self.overbooking)
        if self._epoch_counter % self.config.reconfig_every_epochs == 0:
            self.calendar.prune_before(now)
            self.fleet.reconfigure(active, self.overbooking)
        # Durable store hygiene: once enough churn accumulated past the
        # latest snapshot, checkpoint + compact so recovery stays fast.
        if self.store.should_checkpoint():
            self.durable.checkpoint()
        if epoch_started is not None:
            obs.observe("orchestrator.epoch", (perf_counter() - epoch_started) * 1000.0)

    def _drain_planner_events(self) -> None:
        """Surface the planner's buffered incidents (op timeouts,
        background compensations) on the northbound feed, after the
        planner's drain of its door compensated any walled straggler."""
        for event_type, payload in self.planner.drain_events():
            slice_id = payload.pop("slice_id", None)
            record = self.slice_index.records.get(slice_id) if slice_id else None
            self.events.emit(
                self.sim.now,
                event_type,
                slice_id=slice_id,
                tenant_id=record.request.tenant_id if record else None,
                **payload,
            )

    # ------------------------------------------------------------------
    # Introspection (dashboard + tests)
    # ------------------------------------------------------------------
    def slice(self, slice_id: str) -> NetworkSlice:
        """Lookup any slice ever submitted.

        Raises:
            OrchestratorError: If unknown.
        """
        try:
            return self.slice_index.records[slice_id]
        except KeyError:
            raise OrchestratorError(f"unknown slice {slice_id}") from None

    def active_slices(self) -> List[NetworkSlice]:
        """Slices currently ACTIVE, in ``slice_id`` order."""
        records = self.slice_index.records
        return [records[i] for i in self.slice_index.view(state=SliceState.ACTIVE.value)]

    def live_slices(self) -> List[NetworkSlice]:
        """Slices currently holding resources (ADMITTED/DEPLOYING/ACTIVE) —
        O(live), not O(history)."""
        return [rt.network_slice for rt in self.fleet.runtimes.values()]

    def has_slice(self, slice_id: str) -> bool:
        """Whether a slice record (any state) exists — O(1)."""
        return slice_id in self.slice_index.records

    def runtime(self, slice_id: str) -> Optional[SliceRuntime]:
        """Live runtime of an installed slice (None once expired)."""
        return self.fleet.runtimes.get(slice_id)

    def snapshot(self) -> dict:
        """Dashboard-ready state snapshot."""
        ran_util = self.allocator.ran.utilization()
        transport_util = self.allocator.transport.utilization()
        cloud_util = self.allocator.cloud.utilization()
        return {
            "time": self.sim.now,
            "slices": [s.to_dict() for s in self.slice_index.records.values()],
            "active": len(self.active_slices()),
            "ledger": self.ledger.summary(),
            **self.fleet.figures(ran_util),
            "southbound": {
                "domains": self.registry.domains(),
                "capabilities": self.registry.capabilities(),
                "planner": self.planner.status(),
            },
            "durability": self.store.status(),
            "observability": self.obs.status(),
            "domains": {
                "ran": ran_util,
                "transport": {key: transport_util[key] for key in (
                    "total_capacity_mbps", "effective_reserved_mbps",
                    "nominal_reserved_mbps", "active_paths",
                )},
                "cloud": cloud_util,
            },
        }


__all__ = ["Orchestrator", "OrchestratorConfig", "OrchestratorError"]
