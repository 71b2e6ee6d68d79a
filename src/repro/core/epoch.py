"""The monitoring epoch's per-slice work, owned by :class:`LiveFleet`:
the live slices' runtimes, self-healing, the data-plane pass, each
slice's books and the forecast step of the overbooking loop.

The data-plane pass — demand → RAN serve → transport cap → SLA check
over every ACTIVE slice — is one array pass (:class:`LiveSlots`), bit
for bit what the per-slice loop it replaced gave (``docs/ARCHITECTURE.md``,
"The hot path", says why).  Its rows stand across epochs, and one is
re-read when its slice was touched (:meth:`LiveFleet.touch`) and its
key moved: the identities of the slice's ``allocation``, ``request.sla``
and profile, and the profile's ``peak_mbps`` (set in place by
``modify_slice``).  Every allocation writer replaces the frozen object.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.allocation import compose_allocation
from repro.core.forecasting import Forecaster, ForecastError
from repro.core.overbooking import AdaptiveOverbooking, MultiplexingGainTracker, SlaMonitor
from repro.core.slices import NetworkSlice, SliceRequest, SliceState
from repro.drivers.base import DriverAbsentError, DriverError, Reservation
from repro.ran.ue import UserEquipment
from repro.traffic.patterns import (
    ConstantProfile,
    DiurnalProfile,
    OnOffProfile,
    SpikeProfile,
    TrafficProfile,
)

if TYPE_CHECKING:  # pragma: no cover - the orchestrator imports this module
    from repro.core.orchestrator import Orchestrator
    from repro.epc.instance import EpcInstance

#: Demand samples a live slice keeps — the tail its forecaster refits on.
FORECAST_HISTORY_EPOCHS = 288


@dataclass
class SliceRuntime:
    """Per-slice live state: what the lifecycle holds (reservations,
    fraction, profile, vEPC, UEs) and what the epoch books."""

    network_slice: NetworkSlice
    profile: Optional[TrafficProfile]  # re-adopted: None until first read
    #: Built when a policy first reads a forecast (:meth:`forecast_quantile`);
    #: fed one sample per epoch from then on.
    forecaster: Optional[Forecaster] = None
    #: The forecaster does not equal ``fit(demand_history)`` — there is
    #: none yet, it declined a sample or the capped window slid — so the
    #: next read (re)fits it on the history.
    forecast_stale: bool = True
    effective_fraction: float = 1.0
    epc: Optional["EpcInstance"] = None  # the EPC domain's, when it reports one
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

    def hold(self, reservations: Dict[str, Reservation]) -> None:
        """Take ``reservations`` (some domains or all) and recompose the
        slice's end-to-end allocation from what it now holds."""
        self.reservations.update(reservations)
        self.network_slice.allocation = compose_allocation(self.reservations)
        self.network_slice.fleet.touch(self.network_slice.slice_id)

    def forecast_quantile(self, h: int = 1, q: float = 0.95) -> float:
        """What a policy reads of the slice's forecaster, which is built
        here at the first read and (re)fitted on the history when stale
        (raising :class:`ForecastError` if the fit refuses it)."""
        if self.forecaster is None:
            self.forecaster = self.network_slice.fleet.forecaster_factory()
        if self.forecast_stale:
            self.forecaster.fit([demand for _, demand in self.demand_history])
            self.forecast_stale = False
        return self.forecaster.forecast_quantile(h, q)


#: Profile kinds the pass evaluates as arrays; any other class is asked
#: for its own ``fraction(t)``.
OTHER, CONSTANT, DIURNAL, ONOFF, SPIKE = range(5)
_SHAPES = {
    ConstantProfile: (CONSTANT, ("level",)),
    DiurnalProfile: (DIURNAL, ("base", "phase", "period_s")),
    OnOffProfile: (ONOFF, ("on_fraction", "period_s", "floor")),
    SpikeProfile: (SPIKE, ("baseline", "spike_every_s", "spike_duration_s")),
}
# Columns of the float and the integer table.
_A, _B, _C, _PEAK, _SIGMA, _LINK_MBPS, _SLA_MBPS = range(7)
_KIND, _CELL, _PRBS, _PATH, _PRIORITY = range(5)
#: Path index of a row with no end-to-end allocation: it carries nothing.
_NO_PATH = 0
#: Stands in for a missing allocation in a row key: such a row's RAN
#: reservation has no identity to follow, so it is re-read every epoch.
_UNTRACKED = object()


class LiveSlotsError(RuntimeError):
    """Raised by :meth:`LiveSlots.verify` when a row drifted from its slice."""


@dataclass
class EpochOutcome:
    """One epoch's pass over its ACTIVE slices; row ``i`` is the i-th of
    ``active``, in slice-id order — so the shared stream's normals, the
    SLA books and events and the resize order depend on the live set
    alone, never on the order the slices went live in."""

    active: Dict[str, SliceRuntime]
    demand: np.ndarray
    delivered: np.ndarray
    cap: np.ndarray  # the transport ceiling each row was held to
    violated: np.ndarray


def _grow(table: np.ndarray) -> np.ndarray:
    return np.concatenate([table, np.zeros((max(64, len(table)), table.shape[1]), table.dtype)])


class LiveSlots:
    """The live-slot table: one dense row per ACTIVE slice, standing
    across epochs; :meth:`sync` visits the touched slices alone."""

    def __init__(self) -> None:
        self._slot_of: Dict[str, int] = {}
        self._free: List[int] = []
        #: Each slot's key as last read, one list per part: (allocations,
        #: SLAs, profiles, peaks).
        self._keys: Tuple[List[Any], ...] = ([], [], [], [])
        self._floats = np.zeros((0, 7))
        self._ints = np.zeros((0, 5), dtype=np.int64)
        self._path_of: Dict[Tuple[str, ...], int] = {}
        self._path_links: List[Optional[Tuple[str, ...]]] = [None]  # _NO_PATH
        #: Slices touched since the last sync; rows with no allocation to
        #: follow (re-read every sync); the ACTIVE slices in slice-id order.
        self.touched: Set[str] = set()
        self._untracked: Set[str] = set()
        self._ids: List[str] = []
        self._order = np.zeros(0, dtype=np.intp)
        #: Rows read, row keys compared (the epoch-upkeep gate counts both).
        self.refreshes = self.compared = 0

    def _read(self, fleet: "LiveFleet", slice_id: str, runtime: SliceRuntime) -> tuple:
        """One slice's key, float row and integer row, off live state."""
        request = runtime.network_slice.request
        allocation = runtime.network_slice.allocation
        profile = fleet.profile(runtime)
        kind, names = _SHAPES.get(type(profile), (OTHER, ()))
        if kind == OTHER and type(profile).demand is not TrafficProfile.demand:
            raise TypeError(f"{type(profile).__name__} overrides demand(); the pass draws it")
        shape = [getattr(profile, name) for name in names] + [0.0] * (3 - len(names))
        ran = fleet.allocator.ran
        if allocation is None:
            enb_id = ran.serving_enb_of(slice_id)
            cell = -1 if enb_id is None else ran.cell_of(enb_id)
            prbs = ran.enb(enb_id).grid.reservation(slice_id).effective if cell >= 0 else 0
            path, link_mbps = _NO_PATH, 0.0
        else:
            cell, prbs = ran.cell_of(allocation.ran.enb_id), allocation.ran.effective_prbs
            link_ids = allocation.transport.path.link_ids
            path = self._path_of.setdefault(link_ids, len(self._path_links))
            if path == len(self._path_links):
                self._path_links.append(link_ids)
            link_mbps = allocation.transport.effective_mbps
        key = (allocation or _UNTRACKED, request.sla, profile, profile.peak_mbps)
        floats = (*shape, profile.peak_mbps, profile.noise_std, link_mbps,
                  request.sla.throughput_mbps)
        return key, floats, (kind, cell, prbs, path, request.priority)

    def sync(self, fleet: "LiveFleet") -> Tuple[Dict[str, SliceRuntime], np.ndarray]:
        """The fleet's ACTIVE slices and their slots, in slice-id order,
        visiting the touched and untracked ones only: one new to ACTIVE
        claims a slot, one no longer ACTIVE frees it, a moved key is re-read."""
        slot_of, (allocations, slas, profiles, peaks) = self._slot_of, self._keys
        runtimes, untracked, moved = fleet.runtimes, self._untracked, False
        visits, self.touched = self.touched | untracked, set()
        for slice_id in visits:
            runtime, slot = runtimes.get(slice_id), slot_of.get(slice_id)
            if runtime is None or runtime.network_slice.state is not SliceState.ACTIVE:
                if slot is not None:
                    self._free.append(slot_of.pop(slice_id))
                    for column in self._keys:
                        column[slot] = None
                    untracked.discard(slice_id)
                    moved = True
                continue
            network_slice = runtime.network_slice
            if slot is None:
                slot = slot_of[slice_id] = self._free.pop() if self._free else len(peaks)
                if slot == len(peaks):
                    for column in self._keys:
                        column.append(None)
                    if slot == len(self._floats):
                        self._floats, self._ints = _grow(self._floats), _grow(self._ints)
                moved = True
            elif slice_id not in untracked:
                self.compared += 1
                profile = runtime.profile
                if (
                    allocations[slot] is network_slice.allocation
                    and slas[slot] is network_slice.request.sla
                    and profiles[slot] is profile
                    and peaks[slot] == profile.peak_mbps
                ):
                    continue
            key, self._floats[slot], self._ints[slot] = self._read(fleet, slice_id, runtime)
            allocations[slot], slas[slot], profiles[slot], peaks[slot] = key
            (untracked.add if key[0] is _UNTRACKED else untracked.discard)(slice_id)
            self.refreshes += 1
        if moved:
            self._ids = sorted(slot_of)
            self._order = np.array([slot_of[s] for s in self._ids], dtype=np.intp)
        return {s: runtimes[s] for s in self._ids}, self._order

    def serve(self, fleet: "LiveFleet", rng: np.random.Generator) -> EpochOutcome:
        """Demand → RAN serve → transport cap → SLA check for the fleet's
        ACTIVE slices: one ``rng`` normal per row with σ > 0, in row
        order, and every row counted by ``fleet.sla_monitor``."""
        active, order = self.sync(fleet)
        if not len(order):
            none = np.zeros(0)
            return EpochOutcome(active, none, none, none, none > 0)
        f, i = self._floats[order], self._ints[order]
        demand = self._demand(order, f, i[:, _KIND], fleet.sim.now, rng)
        delivered = fleet.allocator.ran.serve_epoch(
            list(active), i[:, _CELL], demand, i[:, _PRBS], i[:, _PRIORITY]
        )
        cap = f[:, _LINK_MBPS] + self._borrowable(i[:, _PATH], fleet.allocator.transport.topology)
        cap = np.where(cap > 0.0, cap, 0.0)
        delivered = np.where(cap < delivered, cap, delivered)
        violated = fleet.sla_monitor.check(demand, delivered, f[:, _SLA_MBPS])
        return EpochOutcome(active, demand, delivered, cap, violated)

    def _demand(self, order, f, kind, now: float, rng: np.random.Generator) -> np.ndarray:
        """``TrafficProfile.demand(now, rng)`` of every row, in row order."""
        a, b, c = f[:, _A], f[:, _B], f[:, _C]
        fraction = np.where(kind == CONSTANT, a, 0.0)
        rows = kind == DIURNAL
        if rows.any():
            base, cycle = a[rows], (now / c[rows] - b[rows]) % 1.0
            fraction[rows] = base + (1.0 - base) * (0.5 - 0.5 * np.cos(2.0 * math.pi * cycle))
        rows = kind == ONOFF
        if rows.any():
            fraction[rows] = np.where((now % b[rows]) / b[rows] < a[rows], 1.0, c[rows])
        rows = kind == SPIKE
        if rows.any():
            fraction[rows] = np.where(now % b[rows] < c[rows], 1.0, a[rows])
        for row in np.flatnonzero(kind == OTHER).tolist():
            fraction[row] = self._keys[2][order[row]].fraction(now)
        demand = fraction * f[:, _PEAK]
        noisy = np.flatnonzero(f[:, _SIGMA] > 0.0)
        if noisy.size:
            scale = 1.0 + (0.0 + f[noisy, _SIGMA] * rng.standard_normal(noisy.size))
            demand[noisy] *= np.where(scale > 0.0, scale, 0.0)
        return np.where(demand > 0.0, demand, 0.0)

    def _borrowable(self, path: np.ndarray, topology) -> np.ndarray:
        """What each row may borrow beyond its effective reservation: its
        path's bottleneck residual (unused, never reserved — not contended
        between slices within one epoch, which keeps the RAN the binding
        domain as in the demo testbed); ``inf`` for no links, ``-inf``
        for a path over a failed link or no allocation (it carries
        nothing).  Each distinct path in use is walked once."""
        borrowable = np.full(len(self._path_links), -math.inf)
        for index in np.unique(path).tolist():
            link_ids = self._path_links[index]
            if link_ids is not None and topology.down_link_ids.isdisjoint(link_ids):
                borrowable[index] = max(0.0, topology.path_residual_mbps(link_ids))
        return borrowable[path]

    def verify(self, fleet: "LiveFleet") -> None:
        """Check the standing rows and their slice-id order against a
        recompute from ``fleet.runtimes``, each ACTIVE slice's RAN allocation
        against its cell's grid, and every untouched row against a
        re-read: neither its key nor its row may have moved.

        Raises:
            LiveSlotsError: On the first row, order or allocation that drifted.
        """
        ran, pending = fleet.allocator.ran, self.touched
        if sorted([*self._slot_of.values(), *self._free]) != list(range(len(self._keys[0]))):
            raise LiveSlotsError("a slot is lost, held twice, or held and free")
        active = sorted(s for s, rt in fleet.runtimes.items()
                        if rt.network_slice.state is SliceState.ACTIVE)
        unmoved = [[s for s in ids if s not in pending] for ids in (active, self._ids)]
        if unmoved[0] != unmoved[1] or self._order.tolist() != [self._slot_of[s] for s in self._ids]:
            raise LiveSlotsError("the standing rows are not the ACTIVE runtimes, in slice-id order")
        for slice_id, runtime in fleet.runtimes.items():
            network_slice, allocation = runtime.network_slice, runtime.network_slice.allocation
            if network_slice.state is not SliceState.ACTIVE:
                continue
            if allocation is not None:
                enb_id, prbs = allocation.ran.enb_id, allocation.ran.effective_prbs
                held = ran.enb(enb_id).grid.reservation(slice_id).effective
                if ran.serving_enb_of(slice_id) != enb_id or held != prbs:
                    raise LiveSlotsError(f"{slice_id}: allocated {prbs} PRBs on {enb_id}, "
                                         f"{held} held on {ran.serving_enb_of(slice_id)}")
            slot = self._slot_of.get(slice_id)
            if slot is None or slice_id in pending or slice_id in self._untracked:
                continue  # visited at the next sync
            key, floats, ints = self._read(fleet, slice_id, runtime)
            held_key = [column[slot] for column in self._keys]
            if held_key[3] != key[3] or any(held is not read for held, read in zip(held_key[:3], key)):
                raise LiveSlotsError(f"{slice_id}: its row key moved untouched")
            row = (tuple(self._floats[slot].tolist()), tuple(self._ints[slot].tolist()))
            if row != (floats, ints):
                raise LiveSlotsError(f"{slice_id}: row {row} != re-read {(floats, ints)}")


class LiveFleet:
    """The live slices (their runtimes, in go-live order; the lifecycle
    adds and retires them) and the epoch's per-slice work on them.  The
    live-slot table, the SLA monitor and the multiplexing-gain tracker
    are held and written here only; the policies are handed in per call."""

    def __init__(
        self, sim: Any, allocator: Any, registry: Any, events: Any, ledger: Any,
        config: Any, obs: Any, draw_profile: Callable[[SliceRequest], TrafficProfile],
    ) -> None:
        self.sim = sim
        self.allocator = allocator
        self.registry = registry
        self.events = events
        self.ledger = ledger
        self.config = config
        self.obs = obs
        #: Draws the profile of a slice whose runtime has none (re-adopted).
        self.draw_profile = draw_profile
        #: slice id → runtime of every slice holding resources.
        self.runtimes: Dict[str, SliceRuntime] = {}
        #: The data-plane pass's table: one row per ACTIVE slice.
        self.live_slots = LiveSlots()
        self.sla_monitor = SlaMonitor()
        self.gain_tracker = MultiplexingGainTracker()
        #: The durable image's set of slices to re-image (with a store).
        self.changed: Optional[Set[str]] = None
        #: Builds a slice's forecaster at its first read (set per :meth:`forecast`).
        self.forecaster_factory: Optional[Callable[[], Forecaster]] = None

    def add(self, runtime: SliceRuntime) -> SliceRuntime:
        """Hold ``runtime``, last in go-live order; its slice's
        transitions touch it from here."""
        self.runtimes[runtime.network_slice.slice_id] = runtime
        runtime.network_slice.fleet = self
        return runtime

    def touch(self, slice_id: str) -> None:
        """Name a slice whose row key or image inputs may have moved: the
        next sync re-checks its slot, the next checkpoint its image."""
        self.live_slots.touched.add(slice_id)
        if self.changed is not None:
            self.changed.add(slice_id)

    def profile(self, runtime: SliceRuntime) -> TrafficProfile:
        """A live slice's traffic profile; a re-adopted one's is drawn here."""
        if runtime.profile is None:
            runtime.profile = self.draw_profile(runtime.network_slice.request)
        return runtime.profile

    def epoch(self, rng: np.random.Generator, overbooking: Any) -> Dict[str, SliceRuntime]:
        """One monitoring epoch's per-slice work: heal, then demand →
        serve → cap → SLA check over the ACTIVE slices in one array
        pass, then each one's books — demand history, forecaster fold,
        SLA count, penalty and ``sla.violation`` event, the adaptive
        policy's observation — and the fleet's multiplexing gain.
        Returns the ACTIVE slices, in slice-id order."""
        now = self.sim.now
        if self.config.self_healing:
            self.heal()
        served = self.live_slots.serve(self, rng)
        observe = overbooking.observe if isinstance(overbooking, AdaptiveOverbooking) else None
        for (slice_id, runtime), demand, delivered, violated in zip(
            served.active.items(),
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
        return served.active

    def heal(self) -> None:
        """Attempt re-routing, via any repair-capable driver (transport
        in the default wiring), for ACTIVE slices whose domain reports
        ill, in slice-id order."""
        healers = [
            d
            for d in self.registry.drivers()
            if d.capabilities().supports_repair and d.degraded()
        ]
        if not healers:
            return
        for slice_id, runtime in sorted(self.runtimes.items()):
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
                runtime.hold({driver.domain: repaired})
                self.events.emit(
                    self.sim.now,
                    "slice.path_repaired",
                    slice_id=slice_id,
                    tenant_id=network_slice.request.tenant_id,
                )

    def forecast(
        self, active: Dict[str, SliceRuntime], overbooking: Any,
        forecaster_factory: Callable[[], Forecaster],
    ) -> Iterator[Tuple[str, SliceRuntime, float]]:
        """The forecast-and-decide step of the overbooking loop — the
        "dynamic configuration solution that maximizes the statistical
        multiplexing of network slices resources": ``(slice id, runtime,
        new fraction)``, yielded as decided, for each slice of ``active``
        whose history is long enough to trust and whose effective
        fraction the policy moves by 0.02 or more (shrunk to the
        forecast's safe level, or grown back toward nominal).

        The policy is handed the slice's runtime as its forecaster: a
        model is built (``forecaster_factory``) and fitted when a policy
        first reads it, and refitted only when stale; in between the
        epoch folds each sample in, which leaves it equal to a refit on
        the history.  A policy that reads no forecast never pays for one.
        """
        self.forecaster_factory = forecaster_factory
        for slice_id, runtime in active.items():
            if len(runtime.demand_history) < self.config.min_history_for_forecast:
                continue
            nominal = runtime.network_slice.request.sla.throughput_mbps
            try:
                decision = overbooking.decide(slice_id, nominal, forecaster=runtime)
            except ForecastError:
                continue  # the fit refused the history: no decision this time
            if abs(decision.fraction - runtime.effective_fraction) >= 0.02:
                yield slice_id, runtime, decision.fraction

    def figures(self, ran: Dict[str, Any]) -> Dict[str, float]:
        """The dashboard's SLA and overbooking figures, against ``ran``'s
        utilisation."""
        return {
            "violation_rate": self.sla_monitor.violation_rate(),
            "multiplexing_gain": self.gain_tracker.gain(
                ran["nominal_reserved"], max(1, ran["total_prbs"])
            ),
        }


def sim_gauges(orchestrator: "Orchestrator") -> Dict[Tuple[str, str], float]:
    """The simulated world's telemetry, read off live state for one
    scrape: ``(metric, slice id or "") -> value``.

    Per slice that is live and has served a monitoring epoch: what the
    last pass gave it (demand, delivery, violated flag) plus the
    effective fraction; per domain, the controllers' utilisation
    ratios.  Nothing is kept between scrapes, so a slice that expired or
    was cancelled has no series.
    """
    gauges: Dict[Tuple[str, str], float] = {}
    for slice_id, runtime in orchestrator.fleet.runtimes.items():
        if not runtime.demand_history:
            continue  # not ACTIVE through an epoch yet
        gauges["slice.demand_mbps", slice_id] = runtime.last_demand_mbps
        gauges["slice.delivered_mbps", slice_id] = runtime.last_delivered_mbps
        gauges["slice.violated", slice_id] = float(runtime.last_violated)
        gauges["slice.effective_fraction", slice_id] = runtime.effective_fraction
    allocator = orchestrator.allocator
    ran = allocator.ran.utilization()
    prbs = max(1, ran["total_prbs"])
    gauges["ran.effective_utilization", ""] = ran["effective_reserved"] / prbs
    gauges["ran.nominal_utilization", ""] = ran["nominal_reserved"] / prbs
    transport = allocator.transport.utilization()
    mbps = max(1e-9, transport["total_capacity_mbps"])
    gauges["transport.effective_utilization", ""] = transport["effective_reserved_mbps"] / mbps
    gauges["transport.nominal_utilization", ""] = transport["nominal_reserved_mbps"] / mbps
    cloud = allocator.cloud.utilization()
    vcpus = max(1, cloud["total_vcpus"])
    gauges["cloud.vcpu_utilization", ""] = (vcpus - cloud["free_vcpus"]) / vcpus
    return gauges


__all__ = [
    "FORECAST_HISTORY_EPOCHS",
    "EpochOutcome",
    "LiveFleet",
    "LiveSlots",
    "LiveSlotsError",
    "SliceRuntime",
    "sim_gauges",
]
