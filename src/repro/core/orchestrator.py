"""End-to-end network slicing orchestrator.

The top of the Fig. 1 hierarchy.  The orchestrator sits above the three
domain controllers and closes the demo's loop:

    collect utilization → analyse/forecast → optimize allocation →
    reconfigure the network → (repeat)

Responsibilities, mapped to the paper:

- **Admission control** (§1-i): every arriving request is evaluated by a
  pluggable :class:`~repro.core.admission.AdmissionPolicy` against the
  live free-capacity vector, with demand already shrunk by the
  overbooking posture.
- **Multi-domain allocation** (§1-ii): admitted slices are committed
  across RAN/transport/cloud by the
  :class:`~repro.core.allocation.MultiDomainAllocator`, incl. edge/core
  selection and the latency-budget split.
- **Monitoring, forecasting, dynamic reconfiguration** (§1-iii): a
  periodic monitoring epoch samples real demand, serves it through the
  slice-aware RAN scheduler, detects SLA violations and books penalties;
  a slower reconfiguration loop refits per-slice forecasters and
  resizes effective reservations (the *overbooking* step), freeing
  capacity to accommodate new slice requests.

Southbound, the orchestrator speaks only the uniform
:class:`~repro.drivers.base.DomainDriver` contract: installs run as a
two-phase prepare/commit transaction across every driver in the
:class:`~repro.drivers.registry.DriverRegistry` (with automatic
rollback of already-prepared domains on any failure), and resizes,
releases and self-healing route through the same drivers.  Placement
planning (cell/DC selection, free-capacity vectors) still consults the
allocator's topology views — the documented boundary of the driver
abstraction (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from time import perf_counter
from types import MappingProxyType
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    FcfsPolicy,
    ResourceVector,
    TenantQuota,
)
from repro.core.allocation import (
    AllocationError,
    EndToEndAllocation,
    MultiDomainAllocator,
    SliceSize,
)
from repro.core.epoch import LiveSlots
from repro.core.events import EventLog, OrchestrationEvent
from repro.drivers.adapters import build_default_registry
from repro.drivers.base import (
    DomainSpec,
    DriverAbsentError,
    DriverError,
    Reservation,
)
from repro.drivers.planner import BatchInstallPlanner, InstallJob
from repro.drivers.registry import DriverRegistry
from repro.drivers.transaction import InstallTransaction, TransactionError
from repro.core.forecasting import Forecaster, ForecastError, HoltWintersForecaster
from repro.core.overbooking import (
    AdaptiveOverbooking,
    MultiplexingGainTracker,
    NoOverbooking,
    OverbookingPolicy,
    SlaMonitor,
)
from repro.core.pricing import RevenueLedger
from repro.core.slices import (
    NetworkSlice,
    PlmnPool,
    PlmnPoolExhausted,
    SliceIndex,
    SliceRequest,
    SliceState,
    peek_request_counter,
)
from repro.epc.attach import AttachProcedure
from repro.epc.instance import EpcInstance
from repro.obs import NOOP_OBS, ControlPlaneObservability
from repro.ran.controller import PlannedCellLoad
from repro.ran.ue import UserEquipment
from repro.sim.engine import Simulator
from repro.store.codec import live_image, request_to_dict
from repro.store.snapshot import LiveFragments
from repro.store.store import ControlPlaneStore, NullStore, open_store
from repro.sim.processes import PeriodicProcess
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import TrafficProfile


#: Demand samples a live slice keeps — the tail its forecaster refits on.
FORECAST_HISTORY_EPOCHS = 288


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
        install_workers: Concurrent-job cap of the async batch install
            planner (see :class:`~repro.drivers.planner.
            BatchInstallPlanner`; a token pool, not a thread pool).
        install_batch_size: Maximum installs one planner batch runs
            concurrently; larger admission bursts are split.
        install_timeout_s: Default per-operation southbound deadline
            (wall-clock) for batched installs; a domain driver that has
            not completed a prepare/commit within this budget is
            treated as hung — the job unwinds cleanly while healthy
            jobs proceed, and the straggler is compensated when it
            completes.  Drivers declaring their own
            ``DriverCapabilities.operation_timeout_s`` override it;
            ``None`` waits forever (the blocking path's behavior).
        durability_dir: Root directory of the durable control-plane
            store (write-ahead journal + snapshots).  ``None`` (the
            default) keeps the control plane memory-only, exactly the
            pre-durability behavior; set it and every state transition
            is journaled before it is acknowledged, making
            restart-without-losing-slices possible (see
            :mod:`repro.store` and ``docs/ARCHITECTURE.md``).
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
        observability: Switch for the control-plane observability
            subsystem (:mod:`repro.obs`): tracing spans across
            admission → placement → per-domain prepare/commit →
            journal → event emission, per-stage wall-clock latency
            histograms, and the ``GET /v1/admin/metrics`` /
            ``/v1/admin/traces`` surfaces.  Defaults to the
            ``REPRO_OBS_ENABLED=1`` environment flag (i.e. off); when
            off, every instrumentation point resolves to a shared
            no-op singleton — no allocation, no locks, no timing.
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
    install_workers: int = 8
    install_batch_size: int = 16
    install_timeout_s: Optional[float] = None
    durability_dir: Optional[str] = None
    checkpoint_every_records: int = 512
    journal_fsync_every: int = 16
    shard_id: Optional[int] = None
    observability: bool = field(
        default_factory=lambda: os.environ.get("REPRO_OBS_ENABLED", "") == "1"
    )
    observability_slow_span_ms: float = 250.0


@dataclass
class SliceRuntime:
    """Per-slice live state the orchestrator tracks."""

    network_slice: NetworkSlice
    profile: Optional[TrafficProfile]  # re-adopted: None until first read
    #: Built by the first reconfiguration that finds the history long
    #: enough to trust; fed one sample per epoch from then on.
    forecaster: Optional[Forecaster] = None
    #: The forecaster does not equal ``fit(demand_history)`` — there is
    #: none yet, it declined a sample or the capped window slid — so the
    #: next reconfiguration that trusts the history (re)fits on it.
    forecast_stale: bool = True
    effective_fraction: float = 1.0
    epc: Optional[EpcInstance] = None
    ues: List[UserEquipment] = field(default_factory=list)
    last_demand_mbps: float = 0.0
    last_delivered_mbps: float = 0.0
    last_violated: bool = False
    #: One ``(epoch time, demand)`` sample per served epoch; the demands
    #: are what the forecaster refits on, and it dies with the runtime.
    demand_history: Deque[Tuple[float, float]] = field(
        default_factory=lambda: deque(maxlen=FORECAST_HISTORY_EPOCHS)
    )
    reservations: Dict[str, Reservation] = field(default_factory=dict)

    def push_demand(self, now: float, demand: float) -> bool:
        """Keep one more epoch's sample; ``True`` when the cap dropped
        the oldest one to make room."""
        history = self.demand_history
        slid = len(history) == history.maxlen
        history.append((now, demand))
        return slid


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
        self.forecaster_factory = forecaster_factory or (
            lambda: HoltWintersForecaster(season_length=24)
        )
        self.config = config or OrchestratorConfig()
        self.streams = streams or RandomStreams(seed=0)
        # Control-plane observability (repro.obs): spans + histograms
        # across the install pipeline.  Disabled (the default) resolves
        # to the shared no-op singleton — zero per-call allocation.
        self.obs: Any = (
            ControlPlaneObservability(
                slow_span_ms=self.config.observability_slow_span_ms
            )
            if self.config.observability
            else NOOP_OBS
        )
        self.ledger = RevenueLedger()
        self.events = EventLog(capacity=self.config.event_log_capacity)
        self.events.obs = self.obs
        self.sla_monitor = SlaMonitor()
        self.gain_tracker = MultiplexingGainTracker()
        #: The monitoring epoch's table: one row per ACTIVE slice.
        self.live_slots = LiveSlots()
        from repro.core.calendar import ResourceCalendar

        self.calendar = ResourceCalendar(allocator.aggregate_capacity_vector())
        # Durable control plane: every state transition is journaled
        # (write-ahead) before it is acknowledged; a NullStore makes
        # all of this free when no durability_dir is configured.
        self.store = store if store is not None else open_store(
            self.config.durability_dir,
            fsync_every=self.config.journal_fsync_every,
            checkpoint_every=self.config.checkpoint_every_records,
            shard_id=self.config.shard_id,
        )
        #: Leader lease of a sharded deployment (duck-typed — anything
        #: with ``heartbeat() -> bool``; see :mod:`repro.cluster.lease`).
        #: Refreshed every monitoring epoch; a failed refresh means a
        #: standby promoted itself over us, and we fence (stop durable
        #: writes) instead of split-braining the shard's WAL.
        self.lease: Optional[Any] = None
        self.store.bind_obs(self.obs)
        #: Extra state sections (name → provider) merged into every
        #: checkpoint — the broker registers its open window here.
        self.durable_sections: Dict[str, Callable[[], dict]] = {}
        #: The live slices' encoded images, reused by the next checkpoint
        #: for every slice whose image inputs did not change.
        self.live_fragments = LiveFragments()
        #: The one tenant quota table: written by :meth:`set_quota`,
        #: checkpointed by :meth:`durable_state`, refilled by recovery;
        #: the service layer enforces it.
        self.quotas: Dict[str, TenantQuota] = {}
        if self.store.enabled:
            # Events no transition raises (SLA violations, repairs,
            # driver incidents) are journaled on their own; the rest
            # ride in their transition's record (see _journal).
            self.events.sink = self._journal_event
        # Fleet-scale installs: admission bursts (broker windows, the
        # epoch-drained admission queue) run through the event-driven
        # async batch planner instead of looping slice-by-slice.
        self.planner = BatchInstallPlanner(
            self.registry,
            max_workers=self.config.install_workers,
            batch_size=self.config.install_batch_size,
            operation_timeout_s=self.config.install_timeout_s,
            on_record=self._journal_driver_record if self.store.enabled else None,
            obs=self.obs,
        )
        if self.obs.enabled:
            # Pull the southbound drivers into the same trace/metric space.
            for driver in self.registry.drivers():
                driver.obs = self.obs
        self._runtimes: Dict[str, SliceRuntime] = {}
        self._all_slices: Dict[str, NetworkSlice] = {}
        #: The ``slice_id``-sorted views ``GET /v1/slices`` pages are cut from.
        self.slice_index = SliceIndex()
        #: (request, profile, optional decision callback) awaiting the
        #: next batched install (drained every monitoring epoch).
        self._admission_queue: List[Tuple[SliceRequest, TrafficProfile, Optional[Callable[[AdmissionDecision], None]]]] = []
        #: Advance bookings promised and not yet installed:
        #: ``request_id -> (request, start_time)`` (checkpointed so the
        #: promises survive a restart).
        self._pending_advance: Dict[str, Tuple[SliceRequest, float]] = {}
        # slice_id -> (slice, domains whose backend refused to release)
        self._stuck_releases: Dict[str, Tuple[NetworkSlice, List[str]]] = {}
        self._epoch_counter = 0
        self._monitor_process = PeriodicProcess(
            sim,
            self.config.monitoring_epoch_s,
            self._monitoring_epoch,
            name="monitoring-epoch",
        )

    # ------------------------------------------------------------------
    # Lifecycle of the orchestrator itself
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic monitoring loop."""
        self.streams.stream("demand-noise")  # the epochs' shared stream, made before the first
        self._monitor_process.start()

    def attach_lease(self, lease: Any) -> None:
        """Adopt a leader lease (sharded deployments): the monitoring
        loop refreshes it every epoch and fences this process — closes
        the durable store, dropping all further writes — the moment the
        refresh fails because another worker took the shard over."""
        self.lease = lease

    def stop(self) -> None:
        """Halt the monitoring loop."""
        self._monitor_process.stop()

    # ------------------------------------------------------------------
    # Durability (write-ahead journal + snapshots + recovery support)
    # ------------------------------------------------------------------
    def _journal(
        self, record_type: str, event: Optional[OrchestrationEvent] = None, **data
    ) -> int:
        """Write-ahead one control-plane transition (no-op when the
        store is a :class:`~repro.store.store.NullStore`), carrying the
        feed ``event`` it raised: that event's durable LSN is this one."""
        if not self.store.enabled:
            return 0
        if event is not None:
            data["event"] = event.to_dict()
        return self.store.append(record_type, time=self.sim.now, **data)

    def _journal_event(self, event: OrchestrationEvent) -> None:
        """EventLog sink: journal an event no transition raises (backs
        the durable ``GET /v1/events?after_lsn=`` cursor)."""
        self.store.append("event.emitted", time=event.time, event=event.to_dict())

    def _journal_driver_record(
        self, record_type: str, domain: str, slice_id: str, reservation_id: str
    ) -> None:
        """Planner durability hook for the one reservation transition
        no job's trail carries — a straggler compensated after its job
        settled.  Called from whichever thread that compensation landed
        on, possibly a backend's own (the journal is thread-safe)."""
        self.store.append(
            record_type,
            time=self.sim.now,
            domain=domain,
            slice_id=slice_id,
            reservation_id=reservation_id,
        )

    def _live_inputs(self) -> Iterator[Tuple[str, tuple, SliceRequest]]:
        """(slice id, image inputs, request) of every live slice: the
        inputs are the values its image reads that change while it lives
        (see :func:`~repro.store.codec.live_image`), compared by value."""
        now = self.sim.now
        for slice_id, runtime in self._runtimes.items():
            network_slice = runtime.network_slice
            request = network_slice.request
            booking = self.calendar.get(request.request_id)
            yield slice_id, (
                "active" if network_slice.state is SliceState.ACTIVE else "installed",
                request.sla.throughput_mbps,
                network_slice.plmn.plmn_id if network_slice.plmn else None,
                runtime.effective_fraction,
                network_slice.admitted_at if network_slice.admitted_at is not None else now,
                network_slice.active_at,
                (booking.start, booking.end) if booking else None,
                tuple((domain, r.reservation_id) for domain, r in runtime.reservations.items()),
            ), request

    def durable_state(self) -> dict:
        """The full-state checkpoint image (the
        :class:`~repro.store.codec.ReplayState` shape): live slices,
        the admission queue, pending advance bookings, tenant quotas,
        and any registered extra sections (the broker's window)."""
        state = self._durable_sections()
        state["live"] = {
            slice_id: live_image(request, inputs)
            for slice_id, inputs, request in self._live_inputs()
        }
        return state

    def _durable_sections(self) -> dict:
        """:meth:`durable_state` but for its ``live`` section."""
        state = {
            "time": self.sim.now,
            "in_flight": {},
            "queued": {
                request.request_id: request_to_dict(request)
                for request, _, _ in self._admission_queue
            },
            "advance": {
                request_id: {
                    "request": request_to_dict(request),
                    "start_time": start_time,
                }
                for request_id, (request, start_time) in self._pending_advance.items()
            },
            "quotas": {tenant: asdict(quota) for tenant, quota in self.quotas.items()},
            "last_event_seq": self.events.last_seq,
            # High-water mark of issued request ordinals: a snapshot-only
            # restore must never re-issue an id, even when every slice
            # that carried it already terminated.
            "last_request_ordinal": peek_request_counter() - 1,
        }
        for name, provider in self.durable_sections.items():
            state[name] = provider()
        return state

    def checkpoint(self) -> dict:
        """Write a full-state snapshot and compact the journal: the bytes
        of :meth:`durable_state`, with only the live slices whose image
        inputs changed since the last checkpoint imaged and encoded.

        Raises:
            OrchestratorError: When durability is disabled.
        """
        if not self.store.enabled:
            raise OrchestratorError(
                "durability is disabled (no durability_dir configured)"
            )
        live = self.live_fragments.refresh(self._live_inputs(), live_image)
        lsn = self.store.checkpoint(self._durable_sections(), live)
        return {
            "checkpoint_lsn": lsn,
            "time": self.sim.now,
            "records_since_checkpoint": self.store.records_since_checkpoint,
            "fragments_encoded": self.live_fragments.encoded,
        }

    def _drain_planner_events(self) -> None:
        """Surface the planner's buffered incidents (op timeouts,
        background compensations) on the northbound feed — on this
        thread, never a completion thread."""
        for event_type, payload in self.planner.drain_events():
            slice_id = payload.pop("slice_id", None)
            record = self._all_slices.get(slice_id) if slice_id else None
            self.events.emit(
                self.sim.now,
                event_type,
                slice_id=slice_id,
                tenant_id=record.request.tenant_id if record else None,
                **payload,
            )

    def default_profile(self, request: SliceRequest) -> TrafficProfile:
        """The vertical-preset traffic profile for a request: the one the
        v1 API attaches at creation, and the one recovery (and re-enqueued
        admissions) draws again when the original object died with the
        old process — the same shape, since both read the same key.
        Keyed by request id, never a shared stream, so drawing it late
        (:meth:`traffic_profile`) moves no other draw; the peak is the
        current throughput."""
        from repro.traffic.verticals import vertical_for

        spec = vertical_for(request.service_type)
        rng = self.streams.draws(f"api-profile-{request.request_id}")
        return spec.sample_profile(request.sla.throughput_mbps, rng)

    def traffic_profile(self, runtime: SliceRuntime) -> TrafficProfile:
        """A live slice's traffic profile; a re-adopted one's is drawn here."""
        if runtime.profile is None:
            runtime.profile = self.default_profile(runtime.network_slice.request)
        return runtime.profile

    def adopt_recovered_slices(self, adoptions: Iterable[tuple]) -> List[NetworkSlice]:
        """Re-adopt, as one batch and in order, the slices a restart found
        COMMITTED in every domain: each ``(request, plmn_id, fraction,
        reservations, admitted_at, active_at, window_end)``, its instants
        on the new clock (possibly negative; ``active_at`` is ``None`` for
        a slice pending activation, ``window_end`` for one without a
        window).  The batch is sized at once, each PLMN re-claimed, and
        all go live in one :meth:`_go_live` around the drivers' live
        reservations (nothing is re-prepared); a profile is drawn on
        first use.

        Nothing here is journaled, the ``slice.adopted`` events included:
        the ``recovery.rebased`` record recovery writes next is the one
        durable statement of the adoption, and a crash before it replays
        the same recovery from the same records.
        """
        adoptions = list(adoptions)
        sizes = self.allocator.sizes((adoption[0], adoption[2]) for adoption in adoptions)
        all_slices, claim, launches = self._all_slices, self.plmn_pool.claim, []
        for adoption, size in zip(adoptions, sizes):
            request, plmn_id, _, reservations, admitted_at, active_at, window_end = adoption
            network_slice = NetworkSlice(request)
            all_slices[network_slice.slice_id] = network_slice
            if plmn_id:
                network_slice.plmn = claim(network_slice.slice_id, plmn_id)
            launches.append(
                (network_slice, None, size, reservations, admitted_at, active_at, window_end)
            )
        self._go_live(launches)
        now, append = self.sim.now, self.events.append
        adopted = [launch[0] for launch in launches]
        self.slice_index.add(adopted)
        for network_slice in adopted:
            append(
                now, "slice.adopted", slice_id=network_slice.slice_id,
                tenant_id=network_slice.request.tenant_id, state=network_slice.state.value,
            )
        return adopted

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
        self._schedule_advance_install(request, self.default_profile(request), start_time)

    def _schedule_advance_install(
        self, request: SliceRequest, profile: TrafficProfile, start_time: float
    ) -> None:
        """Record a promised advance booking (the pending table + the
        ``booking.committed`` journal record) and schedule its install
        for ``start_time`` — shared by :meth:`submit_advance` and
        :meth:`restore_advance_booking`, which differ only in whether
        the promise is checked first."""
        self._pending_advance[request.request_id] = (request, start_time)
        self._journal(
            "booking.committed",
            request=request_to_dict(request),
            start_time=start_time,
        )

        def install() -> None:
            if self._pending_advance.pop(request.request_id, None) is None:
                return  # booking was cancelled before its start time
            self.install_admitted(request, profile)

        self.sim.schedule_at(start_time, install, name=f"advance-{request.request_id}")

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

    def shrunk_demand(self, request: SliceRequest, fraction: float) -> ResourceVector:
        """Multi-domain demand with the overbooking shrinkage applied.

        PRBs and transport bandwidth shrink; VMs are not overbookable.
        """
        return self.allocator.size(request, fraction).demand

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
        next one judged — :meth:`_go_live` keeps it, a failed install
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
        return self._install(request, profile, size)

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
        self._journal("booking.cancelled", event, request_id=request_id)

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
        self._journal(
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
        self._all_slices[network_slice.slice_id] = network_slice
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
        network_slice.transition(SliceState.REJECTED, self.sim.now)
        self.ledger.book_rejection(request)
        event = self.events.append(
            self.sim.now, "slice.rejected", slice_id, request.tenant_id, reason=reason
        )
        self._journal(
            "slice.rejected", event, request_id=request.request_id,
            slice_id=slice_id, reason=reason, **record,
        )
        return AdmissionDecision(
            request_id=request.request_id,
            admitted=False,
            reason=reason,
            slice_id=slice_id,
        )

    def _go_live(self, launches: Iterable[tuple]) -> None:
        """The one way slices start holding a runtime: an install the
        drivers just acknowledged (a batch of one), or a recovery
        re-adopting what they still hold (the whole fleet).  Each launch
        is ``(slice, profile, size, reservations, admitted_at, active_at,
        window_end)``: ADMITTED and DEPLOYING, the runtime around
        ``reservations``, then the activation timer or, for a slice that
        already turned ACTIVE at ``active_at``, ACTIVE and the expiry
        timer; the calendar windows go in after the batch, in one commit.

        The instants are absolute on this sim clock and may lie in the
        past (a re-adopted slice keeps the time it already served); a
        timer that is already due fires at once.  ``window_end``
        defaults to the end of the promise an install makes.
        """
        now, windows, calendar, runtimes = self.sim.now, [], self.calendar, self._runtimes
        schedule_at, deploy_time_s = self.sim.schedule_at, self.config.deploy_time_s
        # Bound once per batch: each timer holds a partial, no method of its own.
        activate, expire = self._activate, self._expire
        for launch in launches:
            network_slice, profile, size, reservations, admitted_at, active_at, window_end = launch
            request = network_slice.request
            slice_id = network_slice.slice_id
            network_slice.go_live(admitted_at, active_at)
            # A request that passed the calendar gate — online, in a broker
            # window, or booking ahead — holds its window already.
            if not calendar.has(request.request_id):
                if window_end is None:
                    window_end = self._promise_end(request, admitted_at)
                windows.append(
                    (request.request_id, now, max(window_end, now + 1e-9), size.demand)
                )
            runtime = runtimes[slice_id] = SliceRuntime(
                network_slice=network_slice,
                profile=profile,
                effective_fraction=size.fraction,
                reservations=reservations,
            )
            # Contract-clean EPC binding: whatever backend serves the "epc"
            # domain reports its instance (if any) in the reservation.
            epc_reservation = reservations.get("epc")
            if epc_reservation is not None:
                runtime.epc = epc_reservation.details.get("instance")
            network_slice.allocation = self._compose_allocation(reservations)
            if active_at is None:
                schedule_at(
                    max(admitted_at + deploy_time_s, now),
                    partial(activate, slice_id),
                    name=f"activate-{slice_id}",
                )
            else:
                self._schedule_expiry(network_slice, expire)
        calendar.commit_many(windows)

    def _finalize_install(
        self,
        network_slice: NetworkSlice,
        profile: TrafficProfile,
        size: SliceSize,
        reservations: Dict[str, Reservation],
        span_parent: Any = None,
        **record: Any,
    ) -> AdmissionDecision:
        """What an acknowledged install does on top of :meth:`_go_live`,
        shared by both executors: the ledger account and the
        ``slice.installed`` WAL record carrying the ``slice.admitted``
        event and any ``record`` fields (the batched job's ``trail``).
        ``span_parent`` (the batched path's per-job span context) hangs
        the journal stage of this job under its trace; the sequential
        path passes none and stays span-free."""
        obs = self.obs if span_parent is not None else NOOP_OBS
        request = network_slice.request
        self.ledger.book_admission(network_slice.slice_id, request)
        self._go_live([(network_slice, profile, size, reservations, self.sim.now, None, None)])
        # WAL: the install is durable from here — a crash after this
        # record must re-adopt the slice, not forfeit it.
        booking = self.calendar.get(request.request_id)  # _go_live saw to it
        with obs.span("journal", parent=span_parent):
            self._journal(
                "slice.installed",
                self.events.append(
                    self.sim.now, "slice.admitted", network_slice.slice_id,
                    request.tenant_id, price=request.price,
                ),
                request=request_to_dict(request),
                slice_id=network_slice.slice_id,
                plmn=network_slice.plmn.plmn_id if network_slice.plmn else None,
                fraction=size.fraction,
                reservations={d: r.reservation_id for d, r in reservations.items()},
                window=[booking.start, booking.end],
                **record,
            )
        return AdmissionDecision(
            request_id=request.request_id,
            admitted=True,
            reason="installed",
            expected_value=request.price,
            slice_id=network_slice.slice_id,
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
        re-admission — sizes it here, where a fleet that cannot be sized
        is a planning failure like any other.

        ``span_parent`` (the batch span's context) opens the batched
        path's per-job span with its admission/placement stages; the
        single-request path passes none and stays span-free.
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
        self._journal(
            "install.started",
            request=request_to_dict(request),
            slice_id=network_slice.slice_id,
            plmn=network_slice.plmn.plmn_id,
            fraction=size.fraction,
        )
        return network_slice, size, attempts, job_span

    def install_admitted(
        self, request: SliceRequest, profile: TrafficProfile
    ) -> AdmissionDecision:
        """Install a slice whose admission decision was already positive
        (an advance booking's promise, or an external broker's), on the
        calling thread.

        The install can still fail on PLMN exhaustion or an allocation
        race; such failures are booked as rejections.
        """
        return self._install(request, profile, None)

    def _install(
        self, request: SliceRequest, profile: TrafficProfile, size: Optional[SliceSize]
    ) -> AdmissionDecision:
        """The single-request executor's install, behind :meth:`submit`
        (with the size it judged) and :meth:`install_admitted` (none)."""
        staged = self._stage_install(request, size)
        if isinstance(staged, AdmissionDecision):
            return staged
        network_slice, size, attempts, _ = staged
        try:
            reservations = self._install_via_drivers(network_slice, attempts)
        except TransactionError as exc:
            return self._book_install_rejection(network_slice, str(exc))
        return self._finalize_install(network_slice, profile, size, reservations)

    def enqueue_admitted(
        self,
        request: SliceRequest,
        profile: TrafficProfile,
        on_decision: Optional[Callable[[AdmissionDecision], None]] = None,
    ) -> None:
        """Queue an already-admitted request for the next batched
        install — the monitoring-epoch loop drains the queue through the
        concurrent :class:`~repro.drivers.planner.BatchInstallPlanner`
        instead of installing slice-by-slice.  ``on_decision`` (if any)
        fires with the final install outcome when the batch lands."""
        self._journal("admission.enqueued", request=request_to_dict(request))
        self._admission_queue.append((request, profile, on_decision))

    @property
    def pending_installs(self) -> int:
        """Admitted requests queued for the next batched install."""
        return len(self._admission_queue)

    def _drain_admission_queue(self) -> None:
        """Monitoring-epoch drain: batch-install everything queued."""
        if not self._admission_queue:
            return
        queued, self._admission_queue = self._admission_queue, []
        with self.store.batch():  # one fsync, before any callback tells
            decisions = self.install_admitted_batch(
                [(request, profile) for request, profile, _ in queued]
            )
        for (_, _, on_decision), decision in zip(queued, decisions):
            if on_decision is not None:
                on_decision(decision)

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
        is booked as rejected (the same contract the aggregate batch
        admission already documents).

        Decisions are returned in submission order; rollback events are
        emitted only for installs that ultimately failed, matching the
        sequential path's deferred-rollback semantics.

        Installs are stall-isolated per job: the planner drives the
        drivers' futures-based lifecycle, so a hung southbound domain
        delays (or, under ``config.install_timeout_s``, cleanly fails)
        only the jobs that touched it — every other job in the batch
        commits in its own latency.

        ``sizes`` (one per admission) are what a broker window already
        judged the batch on; without them each request is sized as it
        is staged.
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
                    validate=(
                        lambda reservations, ns=network_slice: self._validate_latency(
                            ns, reservations
                        )
                    ),
                    tag=index,
                    # The job span's context rides through the planner's
                    # state machine so every per-domain prepare/commit
                    # span parents here whichever thread resolved it.
                    span_context=job_span.context,
                )
            )
        for outcome in self.planner.install(jobs):
            index = outcome.job.tag
            network_slice, profile, size, job_span = staged[index]
            # The job's whole southbound audit trail — every landed
            # prepare/commit/rollback/release of every attempt, in
            # landing order — rides in the record that settles the job
            # (never folded on replay).
            if outcome.ok:
                results[index] = self._finalize_install(
                    network_slice,
                    profile,
                    size,
                    outcome.reservations,
                    span_parent=job_span.context,
                    trail=outcome.trail,
                )
                job_span.finish()
            else:
                # Surface the failed install's unwinds on the feed (the
                # planner withheld rollbacks of retried-then-successful
                # attempts, per the deferred-rollback contract).
                for domain, reservation, reason in outcome.rollbacks:
                    self._emit_rollback(domain, reservation, reason)
                results[index] = self._book_install_rejection(
                    network_slice, str(outcome.error), trail=outcome.trail
                )
                job_span.finish("error", error=str(outcome.error))
        self._drain_planner_events()
        batch_span.finish()
        assert all(decision is not None for decision in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Southbound driver plumbing
    # ------------------------------------------------------------------
    def _emit_rollback(self, domain: str, reservation: Reservation, reason: str) -> None:
        """Surface a rolled-back domain on the northbound event feed."""
        self.events.emit(
            self.sim.now,
            "driver.rollback",
            slice_id=reservation.slice_id,
            tenant_id=reservation.spec.tenant_id,
            domain=domain,
            reason=reason,
        )

    def _validate_latency(
        self, network_slice: NetworkSlice, reservations: Dict[str, Reservation]
    ) -> None:
        """Never commit a latency-violating end-to-end allocation."""
        allocation = self._compose_allocation(reservations)
        if allocation is None:
            return
        bound = network_slice.request.sla.max_latency_ms
        if allocation.total_latency_ms > bound + 1e-9:
            raise DriverError(
                "orchestrator",
                f"allocation latency {allocation.total_latency_ms:.2f} ms "
                f"exceeds SLA {bound:.2f} ms",
            )

    @staticmethod
    def _compose_allocation(
        reservations: Dict[str, Reservation]
    ) -> Optional[EndToEndAllocation]:
        """The legacy end-to-end view, when all three data-plane domains
        participated (custom registries may omit some)."""
        try:
            return EndToEndAllocation(
                ran=reservations["ran"].details["allocation"],
                transport=reservations["transport"].details["allocation"],
                cloud=reservations["cloud"].details["allocation"],
            )
        except KeyError:
            return None

    def _install_via_drivers(
        self, network_slice: NetworkSlice, attempts: List[Dict[str, DomainSpec]]
    ) -> Dict[str, Reservation]:
        """The single-request executor: one blocking prepare → validate
        → commit :class:`InstallTransaction` per staged attempt, on the
        calling thread, until one commits end-to-end.  A failed attempt
        unwinds every domain it touched before the next is tried —
        nothing is left reserved anywhere.

        Raises:
            TransactionError: When no attempt yields a committed
                end-to-end install.
        """
        # Rollback events buffer until the install's fate is known: a
        # retried-then-successful install must not put driver.rollback
        # noise on the feed (consumers treat it as an install failure).
        deferred_rollbacks: List[Tuple[str, Reservation, str]] = []
        transaction = InstallTransaction(
            self.registry,
            on_rollback=lambda *rollback: deferred_rollbacks.append(rollback),
        )

        def validate(reservations: Dict[str, Reservation]) -> None:
            self._validate_latency(network_slice, reservations)

        for specs in attempts:
            try:
                return transaction.run(specs, validate=validate)
            except TransactionError as exc:
                last_error = exc
        for domain, reservation, reason in deferred_rollbacks:
            self._emit_rollback(domain, reservation, reason)
        raise last_error

    def _release_domains(self, network_slice: NetworkSlice) -> List[str]:
        """Free the slice in every domain, newest-registered first.

        Domains holding nothing are skipped silently (idempotent-ish);
        a *real* backend release failure is surfaced on the event feed
        — the driver keeps the reservation COMMITTED, the failing
        domains are returned, and the monitoring loop retries them
        every epoch until the capacity is actually freed.
        """
        slice_id = network_slice.slice_id
        failed: List[str] = []
        for driver in reversed(self.registry.drivers()):
            try:
                driver.release(slice_id)
            except DriverAbsentError:
                continue
            except DriverError as exc:
                failed.append(driver.domain)
                self.events.emit(
                    self.sim.now,
                    "driver.release_failed",
                    slice_id=slice_id,
                    tenant_id=network_slice.request.tenant_id,
                    domain=driver.domain,
                    reason=str(exc),
                )
                continue
        network_slice.allocation = None
        return failed

    def _teardown_slice(self, network_slice: NetworkSlice) -> None:
        """Release every domain; free the PLMN only once all succeed.

        A stuck backend release keeps the PLMN out of the pool — handing
        it to a new slice while the old backend still serves under it
        would put two slices on one PLMN.  The stuck domains are retried
        each monitoring epoch.
        """
        slice_id = network_slice.slice_id
        failed = self._release_domains(network_slice)
        if failed:
            self._stuck_releases[slice_id] = (network_slice, failed)
        else:
            self.plmn_pool.release(slice_id)

    def _retry_stuck_releases(self) -> None:
        """Monitoring-epoch sweep over releases a backend refused."""
        for slice_id in list(self._stuck_releases):
            network_slice, domains = self._stuck_releases[slice_id]
            remaining: List[str] = []
            for domain in domains:
                if domain not in self.registry:
                    continue  # driver unregistered — nothing left to free
                try:
                    self.registry.get(domain).release(slice_id)
                except DriverAbsentError:
                    continue  # freed out-of-band
                except DriverError:
                    remaining.append(domain)
            if remaining:
                self._stuck_releases[slice_id] = (network_slice, remaining)
                continue
            del self._stuck_releases[slice_id]
            self.plmn_pool.release(slice_id)
            self.events.emit(
                self.sim.now,
                "driver.release_recovered",
                slice_id=slice_id,
                tenant_id=network_slice.request.tenant_id,
                domains=list(domains),
            )

    def _resize_domains(
        self,
        runtime: SliceRuntime,
        new_throughput_mbps: float,
        new_fraction: float,
    ) -> None:
        """The one place a live slice changes size — a tenant's new
        throughput or the overbooking engine's new fraction: every
        resize-capable domain is re-dimensioned, then the SLA, the
        runtime's fraction and reservations, the composed allocation
        and the calendar booking follow.

        Applied in registry order with compensation: a failing domain
        rolls the already-resized ones back to their previous spec, so
        the domains never disagree about the slice's size — and nothing
        above them has moved yet.

        Raises:
            DriverError: When some domain cannot fit the new size (after
                compensation).
        """
        network_slice = runtime.network_slice
        request = network_slice.request
        slice_id = network_slice.slice_id
        if not 0.0 < new_fraction <= 1.0:
            raise DriverError(
                "orchestrator",
                f"effective fraction must be in (0, 1], got {new_fraction}",
            )
        if new_throughput_mbps <= 0:
            raise DriverError(
                "orchestrator",
                f"throughput must be positive, got {new_throughput_mbps}",
            )
        resized = []  # [(driver, previous spec, live reservation)]
        for driver in self.registry.drivers():
            if not driver.capabilities().supports_resize:
                continue
            reservation = driver.reservation_of(slice_id)
            if reservation is None:
                continue
            old_spec = reservation.spec
            new_spec = DomainSpec(
                slice_id=slice_id,
                tenant_id=request.tenant_id,
                throughput_mbps=new_throughput_mbps,
                max_latency_ms=request.sla.max_latency_ms,
                duration_s=request.sla.duration_s,
                effective_fraction=new_fraction,
                vcpus=old_spec.vcpus,
                attributes=dict(old_spec.attributes),
            )
            try:
                resized.append((driver, old_spec, driver.resize(slice_id, new_spec)))
            except DriverError:
                # Compensate: restore the previous size everywhere.
                for done, prev_spec, _ in reversed(resized):
                    try:
                        done.resize(slice_id, prev_spec)
                    except DriverError:  # pragma: no cover - best effort
                        continue
                raise
        if not resized:
            # No domain actually re-dimensioned anything — succeeding
            # here would rewrite the SLA/calendar with no backing change
            # (the legacy allocator raised in this situation too).
            raise DriverError(
                "orchestrator", f"slice {slice_id} is not allocated"
            )
        for driver, _, reservation in resized:
            runtime.reservations[driver.domain] = reservation
        network_slice.allocation = self._compose_allocation(runtime.reservations)
        runtime.effective_fraction = new_fraction
        request.sla = replace(request.sla, throughput_mbps=new_throughput_mbps)
        # Keep the calendar booking in step with the commitment, so
        # admission sees what a shrink freed.
        if self.calendar.has(request.request_id):
            self.calendar.update_demand(
                request.request_id, self.shrunk_demand(request, new_fraction)
            )

    def _activate(self, slice_id: str) -> None:
        runtime = self._runtimes.get(slice_id)
        if runtime is None:
            return
        network_slice = runtime.network_slice  # DEPLOYING: only _go_live set this timer
        network_slice.transition(SliceState.ACTIVE, self.sim.now)
        event = self.events.append(
            self.sim.now, "slice.activated", slice_id, network_slice.request.tenant_id
        )
        self._journal("slice.activated", event, slice_id=slice_id)
        if self.config.simulate_ues:
            self._spawn_ues(runtime)
        self._schedule_expiry(network_slice)

    def _schedule_expiry(
        self, network_slice: NetworkSlice, expire: Optional[Callable] = None
    ) -> None:
        """Expiry is measured from activation (the SLA's duration).
        ``expire`` is :meth:`_expire`, bound once by a batch."""
        slice_id = network_slice.slice_id
        self.sim.schedule_at(
            max(network_slice.end_time(), self.sim.now),
            partial(expire or self._expire, slice_id),
            name=f"expire-{slice_id}",
        )

    def _spawn_ues(self, runtime: SliceRuntime) -> None:
        """Create the slice's vEPC binding + UE population and attach them."""
        network_slice = runtime.network_slice
        slice_id = network_slice.slice_id
        if network_slice.plmn is None or network_slice.allocation is None:
            return
        if runtime.epc is None:
            if "epc" in runtime.reservations:
                # An EPC domain owns the core but exposed no instance
                # (custom backend) — never bind a duplicate inline.
                return
            # No EPC domain in the registry — bind the instance inline.
            stack = self.allocator.cloud.stack_of(slice_id)
            if stack is None:
                return
            runtime.epc = EpcInstance(slice_id, network_slice.plmn.plmn_id, stack)
        enb = self.allocator.ran.enb(network_slice.allocation.ran.enb_id)
        rng = self.streams.derive(f"ues-{slice_id}")
        n_ues = min(network_slice.request.n_users, self.config.max_ues_per_slice)
        procedure = AttachProcedure(
            enb, runtime.epc, network_slice.allocation.transport.delay_ms
        )
        for _ in range(n_ues):
            ue = UserEquipment(network_slice.plmn, slice_id, rng=rng)
            runtime.epc.provision_subscriber(ue.imsi)
            enb.register_ue(ue)
            runtime.ues.append(ue)
            procedure.attach(ue)

    def terminate_early(self, slice_id: str, refund: bool = True) -> float:
        """Tenant-initiated teardown of an ACTIVE slice.

        Optionally refunds the unused fraction of the slice's price
        (pro-rata on remaining duration).  Returns the refund amount.

        Raises:
            OrchestratorError: If the slice is not ACTIVE.
        """
        runtime = self._runtimes.get(slice_id)
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
        self._expire(slice_id)
        return amount

    def cancel(self, slice_id: str, refund: bool = True) -> float:
        """Tenant-initiated cancellation of a slice that is not yet ACTIVE.

        An ADMITTED/DEPLOYING slice has committed resources but serves no
        traffic yet, so cancelling releases everything and (optionally)
        refunds the full price.  The already-scheduled activation event
        fires harmlessly: ``_activate`` ignores a slice whose runtime is
        gone.  Returns the refund amount.

        Raises:
            OrchestratorError: If the slice is unknown or already ACTIVE
                (use :meth:`terminate_early`) or terminal.
        """
        runtime = self._runtimes.get(slice_id)
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
        self._retire(runtime, SliceState.CANCELLED, refund=amount)
        return amount

    def _expire(self, slice_id: str) -> None:
        runtime = self._runtimes.get(slice_id)
        if runtime is None:
            return
        network_slice = runtime.network_slice  # ACTIVE: a live runtime's expiry timer
        self._retire(
            runtime,
            SliceState.EXPIRED,
            violation_epochs=network_slice.violation_epochs,
            served_epochs=network_slice.served_epochs,
        )

    def _retire(
        self, runtime: SliceRuntime, terminal_state: SliceState, **event_fields
    ) -> None:
        """The one way a live slice stops holding resources: runtime
        out, UEs detached, every domain released, calendar window
        freed, then the terminal transition with its ``slice.<state>``
        journal record and event."""
        network_slice = runtime.network_slice
        slice_id = network_slice.slice_id
        request = network_slice.request
        del self._runtimes[slice_id]
        for ue in runtime.ues:
            if ue.attached:
                ue.detach()
        self._teardown_slice(network_slice)
        if runtime.epc is not None and runtime.epc.running:
            # Inline-bound instance (no EPC driver released it above).
            runtime.epc.shutdown()
        if self.calendar.has(request.request_id):
            self.calendar.release(request.request_id)
        network_slice.transition(terminal_state, self.sim.now)
        record_type = f"slice.{terminal_state.value}"
        event = self.events.append(
            self.sim.now, record_type, slice_id, request.tenant_id, **event_fields
        )
        self._journal(record_type, event, slice_id=slice_id)

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
        runtime = self._runtimes.get(slice_id)
        if runtime is None or runtime.network_slice.state is not SliceState.ACTIVE:
            return AdmissionDecision(
                request_id=slice_id,
                admitted=False,
                reason="slice not active",
            )
        try:
            self._resize_domains(
                runtime, new_throughput_mbps, runtime.effective_fraction
            )
        except DriverError as exc:
            return AdmissionDecision(
                request_id=slice_id, admitted=False, reason=str(exc)
            )
        self.traffic_profile(runtime).peak_mbps = new_throughput_mbps
        self._journal(
            "slice.modified", slice_id=slice_id, throughput_mbps=new_throughput_mbps
        )
        return AdmissionDecision(
            request_id=slice_id,
            admitted=True,
            reason=f"rescaled to {new_throughput_mbps:.1f} Mb/s",
        )

    # ------------------------------------------------------------------
    # Monitoring + reconfiguration loop
    # ------------------------------------------------------------------
    def _monitoring_epoch(self) -> None:
        obs = self.obs
        epoch_started = perf_counter() if obs.enabled else None
        if epoch_started is not None:
            obs.gauge_set("queue.pending_installs", float(len(self._admission_queue)))
            obs.gauge_set("queue.stuck_releases", float(len(self._stuck_releases)))
        self._epoch_counter += 1
        now = self.sim.now
        # Leader lease first: journaling anything after losing the
        # shard would interleave a deposed leader's records with the
        # promoted standby's WAL.
        if self.lease is not None and not self.lease.heartbeat():
            self.store.close(sync=False)  # fenced: same semantics as a crash
            self.events.emit(
                now, "lease.fenced", shard_id=self.config.shard_id
            )
            self.lease = None
        # Durable heartbeat: recovery rebases lifecycle clocks against
        # the newest journaled time, so an idle control plane must
        # still bound its crash-time estimate to one epoch.
        self._journal("clock.tick", epoch=self._epoch_counter)
        # Fleet-scale installs: drain everything admitted since the last
        # epoch through the concurrent batch planner in one go.
        self._drain_admission_queue()
        # Late stragglers compensated since the last epoch surface as
        # events now, on this thread.
        self._drain_planner_events()
        if self._stuck_releases:
            self._retry_stuck_releases()
        if self.config.self_healing:
            self._heal_paths()
        # Demand → RAN serve → transport cap → SLA check over the ACTIVE
        # slices, one array pass (core/epoch.py); what stays per slice is
        # the bookkeeping.
        served = self.live_slots.serve(
            self, self._runtimes, self.streams.stream("demand-noise")
        )
        active = served.active
        observe = (
            self.overbooking.observe
            if isinstance(self.overbooking, AdaptiveOverbooking)
            else None
        )
        for (slice_id, runtime), demand, delivered, violated in zip(
            active.items(),
            served.demand.tolist(),
            served.delivered.tolist(),
            served.violated.tolist(),
        ):
            network_slice = runtime.network_slice
            runtime.last_demand_mbps = demand
            runtime.last_delivered_mbps = delivered
            slid = runtime.push_demand(now, demand)
            if not runtime.forecast_stale:
                try:
                    if slid or not runtime.forecaster.update(demand):
                        runtime.forecast_stale = True
                except ForecastError:
                    runtime.forecast_stale = True  # the refit reports it
            runtime.last_violated = violated
            network_slice.record_epoch(violated)
            if violated:
                self.ledger.book_penalty(slice_id, network_slice.request.penalty_rate)
                self.events.emit(
                    now,
                    "sla.violation",
                    slice_id=slice_id,
                    tenant_id=network_slice.request.tenant_id,
                    demand_mbps=float(demand),
                    delivered_mbps=float(delivered),
                    penalty=network_slice.request.penalty_rate,
                )
            if observe is not None:
                observe(violated)
        nominal_prbs, total_prbs = self.allocator.ran.nominal_load()
        self.gain_tracker.record(nominal_prbs, max(1, total_prbs))
        if self._epoch_counter % self.config.reconfig_every_epochs == 0:
            self.calendar.prune_before(now)
            self._reconfigure(active)
        # Durable store hygiene: once enough churn accumulated past the
        # latest snapshot, checkpoint + compact so recovery stays fast.
        if self.store.should_checkpoint():
            self.checkpoint()
        if epoch_started is not None:
            obs.observe(
                "orchestrator.epoch", (perf_counter() - epoch_started) * 1000.0
            )

    def _heal_paths(self) -> None:
        """Attempt re-routing, via any repair-capable driver (transport
        in the default wiring), for ACTIVE slices whose domain reports ill."""
        healers = [
            d
            for d in self.registry.drivers()
            if d.capabilities().supports_repair and d.degraded()
        ]
        if not healers:
            return
        for slice_id, runtime in self._runtimes.items():
            network_slice = runtime.network_slice
            if network_slice.state is not SliceState.ACTIVE or network_slice.allocation is None:
                continue
            for driver in healers:
                try:
                    healthy = driver.health(slice_id).get("healthy", True)
                except DriverAbsentError:
                    continue  # slice not installed in this domain — benign
                except DriverError:
                    # A real health-check failure must not pass silently.
                    self.obs.counter_add("slice.repair_failed", label=driver.domain)
                    continue
                if healthy:
                    continue
                try:
                    repaired = driver.repair(slice_id)
                except DriverError:
                    # No feasible detour right now; the slice will violate
                    # its SLA until a link recovers — exactly the penalty
                    # the overbooking ledger accounts for.
                    self.obs.counter_add("slice.repair_failed", label=driver.domain)
                    continue
                runtime.reservations[driver.domain] = repaired
                runtime.network_slice.allocation = self._compose_allocation(
                    runtime.reservations
                )
                self.events.emit(
                    self.sim.now,
                    "slice.path_repaired",
                    slice_id=slice_id,
                    tenant_id=runtime.network_slice.request.tenant_id,
                )

    def _reconfigure(self, active: Dict[str, SliceRuntime]) -> None:
        """Forecast each trusted slice and resize effective reservations.

        This is the "dynamic configuration solution that maximizes the
        statistical multiplexing of network slices resources": slices
        with enough history get their commitment shrunk to the
        forecast's safe level; slices trending up are grown back toward
        nominal (when capacity allows).

        A slice's forecaster is built and fitted here the first time its
        history is long enough to trust — not at its first epoch: a
        slice that never lives that long never pays for a model — and
        refitted only when stale; in between the epoch loop folds each
        sample in, which leaves it equal to a refit on the history.
        """
        for slice_id, runtime in active.items():
            history = runtime.demand_history
            if len(history) < self.config.min_history_for_forecast:
                continue
            if runtime.forecaster is None:
                runtime.forecaster = self.forecaster_factory()
            if runtime.forecast_stale:
                try:
                    runtime.forecaster.fit([demand for _, demand in history])
                except ForecastError:
                    continue
                runtime.forecast_stale = False
            nominal = runtime.network_slice.request.sla.throughput_mbps
            decision = self.overbooking.decide(
                slice_id, nominal, forecaster=runtime.forecaster
            )
            new_fraction = decision.fraction
            if abs(new_fraction - runtime.effective_fraction) < 0.02:
                continue
            old_fraction = runtime.effective_fraction
            try:
                self._resize_domains(runtime, nominal, new_fraction)
            except DriverError:
                # Growing back may not fit if newcomers took the space —
                # the overbooking risk surfaces as SLA violations instead.
                continue
            event = self.events.append(
                self.sim.now, "slice.reconfigured", slice_id,
                runtime.network_slice.request.tenant_id,
                old_fraction=old_fraction, new_fraction=new_fraction,
            )
            self._journal("slice.reconfigured", event, slice_id=slice_id, fraction=new_fraction)

    # ------------------------------------------------------------------
    # Introspection (dashboard + tests)
    # ------------------------------------------------------------------
    def slice(self, slice_id: str) -> NetworkSlice:
        """Lookup any slice ever submitted.

        Raises:
            OrchestratorError: If unknown.
        """
        try:
            return self._all_slices[slice_id]
        except KeyError:
            raise OrchestratorError(f"unknown slice {slice_id}") from None

    def active_slices(self) -> List[NetworkSlice]:
        """Slices currently ACTIVE, in ``slice_id`` order."""
        return [self._all_slices[i] for i in self.slice_index.view(state=SliceState.ACTIVE.value)]

    def live_slices(self) -> List[NetworkSlice]:
        """Slices currently holding resources (ADMITTED/DEPLOYING/ACTIVE) —
        O(live), not O(history)."""
        return [rt.network_slice for rt in self._runtimes.values()]

    def has_slice(self, slice_id: str) -> bool:
        """Whether a slice record (any state) exists — O(1)."""
        return slice_id in self._all_slices

    def runtime(self, slice_id: str) -> Optional[SliceRuntime]:
        """Live runtime of an installed slice (None once expired)."""
        return self._runtimes.get(slice_id)

    def snapshot(self) -> dict:
        """Dashboard-ready state snapshot."""
        ran_util = self.allocator.ran.utilization()
        transport_util = self.allocator.transport.utilization()
        cloud_util = self.allocator.cloud.utilization()
        return {
            "time": self.sim.now,
            "slices": [s.to_dict() for s in self._all_slices.values()],
            "active": len(self.active_slices()),
            "ledger": self.ledger.summary(),
            "violation_rate": self.sla_monitor.violation_rate(),
            "multiplexing_gain": self.gain_tracker.gain(
                ran_util["nominal_reserved"], max(1, ran_util["total_prbs"])
            ),
            "southbound": {
                "domains": self.registry.domains(),
                "capabilities": self.registry.capabilities(),
                "planner": {
                    "batches_run": self.planner.batches_run,
                    "jobs_installed": self.planner.jobs_installed,
                    "jobs_failed": self.planner.jobs_failed,
                    "ops_timed_out": self.planner.ops_timed_out,
                    "ops_compensated": self.planner.ops_compensated,
                    "pending_installs": self.pending_installs,
                },
            },
            "durability": self.store.status(),
            "observability": self.obs.status(),
            "domains": {
                "ran": ran_util,
                "transport": {
                    "total_capacity_mbps": transport_util["total_capacity_mbps"],
                    "effective_reserved_mbps": transport_util["effective_reserved_mbps"],
                    "nominal_reserved_mbps": transport_util["nominal_reserved_mbps"],
                    "active_paths": transport_util["active_paths"],
                },
                "cloud": cloud_util,
            },
        }


__all__ = [
    "Orchestrator",
    "OrchestratorConfig",
    "OrchestratorError",
    "SliceRuntime",
]
