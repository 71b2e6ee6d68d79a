"""The live slices, owned by :class:`LiveFleet`: each slice's lifecycle
once it is admitted — go live, activate, resize, retire, and the timers
and stuck releases between — and the monitoring epoch's per-slice work:
self-healing, the data-plane pass, each slice's books and the
overbooking step.

The data-plane pass — demand → RAN serve → transport cap → SLA check
over every ACTIVE slice — is one array pass (:class:`LiveSlots`), bit
for bit what the per-slice loop it replaced gave (``docs/ARCHITECTURE.md``,
"The hot path", says why).  Its rows stand across epochs, and one is
re-read when its slice was touched (its id put in ``LiveSlots.touched``,
which the fleet does wherever it changes a live slice) and its
key moved: the identities of the slice's ``allocation``, ``request.sla``
and profile, and the profile's ``peak_mbps`` (set in place by
:meth:`LiveFleet.rescale`).  Every allocation writer replaces the frozen object.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.allocation import compose_allocation
from repro.core.forecasting import Forecaster, ForecastError
from repro.core.overbooking import AdaptiveOverbooking, MultiplexingGainTracker, SlaMonitor
from repro.core.slices import NetworkSlice, SliceIndex, SliceRequest, SliceState
from repro.drivers.base import DriverAbsentError, DriverError, Reservation
from repro.drivers.transaction import StuckReleases, resize_everywhere
from repro.epc.attach import AttachProcedure
from repro.ran.ue import UserEquipment
from repro.sim.randomness import DrawnUniforms
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
#: Profiles a build draws in one numpy batch from this many on; fewer
#: draw one by one.  Measured (CPython 3.11, x86-64): a batch costs 7.7x
#: the scalar draws at 1 name, 1.09x at 12, 0.99x at 16 and 0.91x at 20.
BATCHED_DRAWS = 16


@dataclass
class SliceRuntime:
    """Per-slice live state: what the lifecycle holds (reservations,
    fraction, profile, vEPC, UEs) and what the epoch books."""

    network_slice: NetworkSlice
    profile: TrafficProfile
    #: Built when a policy first reads a forecast (:meth:`forecast_quantile`),
    #: by the fleet's factory, which its overbooking step hands it; fed
    #: one sample per epoch from then on.
    forecaster: Optional[Forecaster] = None
    forecaster_factory: Optional[Callable[[], Forecaster]] = None
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
    #: ``None`` while built and not bound (a standby's ready plane holds
    #: no deque per slice): :meth:`LiveFleet.bind` starts it.
    demand_history: Optional[Deque[Tuple[float, float]]] = field(
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

    def forecast_quantile(self, h: int = 1, q: float = 0.95) -> float:
        """What a policy reads of the slice's forecaster, which is built
        here at the first read and (re)fitted on the history when stale
        (raising :class:`ForecastError` if the fit refuses it)."""
        if self.forecaster is None:
            self.forecaster = self.forecaster_factory()
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
        profile = runtime.profile
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
        visits = self.touched | untracked
        self.touched.clear()
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
    """The live slices and their lifecycle — deploy, ACTIVE "after few
    seconds", monitor, reconfigure, expire — and the epoch's per-slice work.

    The one writer of the runtime table (slice id → runtime, in go-live
    order): a slice goes live (:meth:`go_live`), changes size
    (:meth:`resize`) and stops holding resources (:meth:`retire`) here
    only, each marking it in ``live_slots.touched``.  The fleet owns the
    activation and expiry timers, the releases a backend refused, the
    live-slot table, the SLA monitor and the gain tracker; it is handed
    the calendar, PLMN pool, slice index and durable image its lifecycle
    writes, never the orchestrator, and the policies per call."""

    def __init__(
        self, sim: Any, allocator: Any, registry: Any, events: Any, ledger: Any,
        config: Any, obs: Any, streams: Any, *, calendar: Any, plmn_pool: Any,
        index: SliceIndex, durable: Any, forecaster_factory: Callable[[], Forecaster],
    ) -> None:
        self.sim = sim
        self.allocator = allocator
        self.registry = registry
        self.events = events
        self.ledger = ledger
        self.config = config
        self.obs = obs
        self.streams = streams
        self.calendar = calendar
        self.plmn_pool = plmn_pool
        self.index = index
        self.durable = durable
        #: What builds a live slice's forecaster, at a policy's first read.
        self.forecaster_factory = forecaster_factory
        #: slice id → runtime of every slice holding resources.
        self.runtimes: Dict[str, SliceRuntime] = {}
        #: Releases a backend refused, retried every monitoring epoch.
        self.releases = StuckReleases(registry)
        #: The data-plane pass's table: one row per ACTIVE slice.
        self.live_slots = LiveSlots()
        self.sla_monitor = SlaMonitor()
        self.gain_tracker = MultiplexingGainTracker()

    # ------------------------------------------------------------------
    # The lifecycle: go live, activate, resize, retire
    # ------------------------------------------------------------------
    def go_live(self, launches: List[tuple]) -> None:
        """The one way slices start holding a runtime: an install the
        drivers just acknowledged (a batch of one) is built and bound back
        to back; a recovery builds what it re-adopts first and binds it
        once the southbound said what it still holds.  Each launch is
        ``(slice, profile, size, reservations, admitted_at, active_at,
        window)`` of a PENDING slice the caller indexes."""
        runtimes = self.build(launches)
        for runtime, launch in zip(runtimes, launches):
            runtime.reservations.update(launch[3])
        self.bind(runtimes)

    def build(self, launches: List[tuple]) -> List[SliceRuntime]:
        """The control-plane side of each launch, holding nothing
        southbound and setting no timer: the runtime, ADMITTED and
        DEPLOYING at ``admitted_at`` and, for a slice that turned ACTIVE
        at ``active_at``, ACTIVE; a ``None`` profile drawn (all of them in
        one batch, :meth:`default_profile`'s bits); the ``window`` (start,
        end) of each request that holds none yet, all in one commit.
        Every instant comes from the launch, none from the clock: a
        standby builds its ready plane (``cluster/standby.py``) ahead of
        the promotion that binds it."""
        windows, built, calendar, runtimes = [], [], self.calendar, self.runtimes
        for network_slice, profile, size, _, admitted_at, active_at, window in launches:
            request = network_slice.request
            runtime = runtimes[network_slice.slice_id] = SliceRuntime(
                network_slice=network_slice, profile=profile, effective_fraction=size.fraction,
                demand_history=None,
            )
            built.append(runtime)
            network_slice.go_live(admitted_at, active_at)
            # A request that passed the calendar gate — online, in a broker
            # window, or booking ahead — holds its window already.
            if not calendar.has(request.request_id):
                windows.append((request.request_id, window[0], window[1], size.demand))
        calendar.commit_many(windows)
        undrawn = [runtime for runtime in built if runtime.profile is None]
        if undrawn:
            self._draw_profiles(undrawn)
        return built

    def restore(
        self, adoptions: Iterable[tuple], promise_end: Callable[[SliceRequest, float], float],
    ) -> List[NetworkSlice]:
        """Build, as one batch and in order, the slices a recovery re-adopts,
        each ``(request, plmn_id, fraction, admitted_at, active_at,
        window)`` as journaled (``active_at`` ``None`` for a slice pending
        activation, ``window`` ``None`` for one promised from its
        admission, to ``promise_end(request, admitted_at)``): all sized at
        once, each PLMN re-claimed, built (:meth:`build`, their profiles
        drawn in one batch) and indexed.  Nothing is bound."""
        adoptions = list(adoptions)
        sizes = self.allocator.sizes((adoption[0], adoption[2]) for adoption in adoptions)
        claim, restored, launches = self.plmn_pool.claim, [], []
        for (request, plmn_id, _, admitted_at, active_at, window), size in zip(adoptions, sizes):
            network_slice = NetworkSlice(request)
            restored.append(network_slice)
            if plmn_id:
                network_slice.plmn = claim(network_slice.slice_id, plmn_id)
            launches.append((network_slice, None, size, None, admitted_at, active_at,
                             window or (admitted_at, promise_end(request, admitted_at))))
        self.build(launches)
        self.index.add(restored)
        return restored

    def bind(self, runtimes: List[SliceRuntime]) -> None:
        """Bind each built runtime to the reservations the drivers hold,
        which the caller has put in its ``reservations``: the allocation
        they compose, its vEPC instance, and its activation timer or, once
        ACTIVE, its expiry timer, set in the batch's order.  A timer that
        is already due fires at the clock's next step.  Each runtime's
        demand history starts here; each slice is marked touched.  One
        pass over the batch, each due instant ``max(due, now)`` (an expiry
        due at :meth:`NetworkSlice.end_time`) written out in it."""
        sim, deploy_time_s = self.sim, self.config.deploy_time_s
        now = sim.now
        # Bound once per batch: each timer holds a partial, no method of its own.
        activate, expire, hold = self._activate, self.expire, self._hold
        for runtime in runtimes:
            runtime.demand_history = deque(maxlen=FORECAST_HISTORY_EPOCHS)
            hold(runtime)  # composes its allocation, marks it touched
            # Contract-clean EPC binding: whatever backend serves the "epc"
            # domain reports its instance (if any) in the reservation.
            epc = runtime.reservations.get("epc")
            if epc is not None:
                runtime.epc = epc.details.get("instance")
            network_slice = runtime.network_slice
            slice_id, active_at = network_slice.slice_id, network_slice.active_at
            if active_at is None:
                due = network_slice.admitted_at + deploy_time_s
                sim.schedule_at(now if now > due else due, partial(activate, slice_id))
            else:
                due = active_at + network_slice.request.sla.duration_s
                sim.schedule_at(now if now > due else due, partial(expire, slice_id))

    def unbuild(self, slice_ids: Iterable[str]) -> None:
        """Undo :meth:`build` for slices never bound — a ready plane's
        slice that the journal changed or ended, or that the southbound
        lost: its runtime, PLMN claim, window and index entry go as if
        never made."""
        gone = [self.runtimes.pop(slice_id).network_slice for slice_id in slice_ids]
        for network_slice in gone:
            if network_slice.plmn is not None:
                self.plmn_pool.unclaim(network_slice.slice_id)
            if self.calendar.has(network_slice.request.request_id):
                self.calendar.release(network_slice.request.request_id)
        self.index.discard(gone)

    def _hold(
        self, runtime: SliceRuntime, reservations: Optional[Dict[str, Reservation]] = None
    ) -> None:
        """Give ``runtime`` ``reservations`` (some domains or all; none: it
        holds them already), recompose its slice's end-to-end allocation
        from what it now holds, and mark the slice touched."""
        if reservations:
            runtime.reservations.update(reservations)
        runtime.network_slice.allocation = compose_allocation(runtime.reservations)
        self.live_slots.touched.add(runtime.network_slice.slice_id)

    def _transition(self, network_slice: NetworkSlice, state: SliceState) -> None:
        """Take a live slice to ``state`` now; its views follow, it is marked touched."""
        self.index.transition(network_slice, state, self.sim.now)
        self.live_slots.touched.add(network_slice.slice_id)

    def _activate(self, slice_id: str) -> None:
        runtime = self.runtimes.get(slice_id)
        if runtime is None:
            return  # cancelled while it deployed
        network_slice = runtime.network_slice  # DEPLOYING: only go_live set this timer
        self._transition(network_slice, SliceState.ACTIVE)
        event = self.events.append(
            self.sim.now, "slice.activated", slice_id, network_slice.request.tenant_id
        )
        self.durable.journal("slice.activated", event, slice_id=slice_id)
        if self.config.simulate_ues:
            self._spawn_ues(runtime)
        self._schedule_expiry(network_slice)

    def _schedule_expiry(self, network_slice: NetworkSlice) -> None:
        """Expiry is measured from activation (the SLA's duration)."""
        self.sim.schedule_at(max(network_slice.end_time(), self.sim.now),
                             partial(self.expire, network_slice.slice_id))

    def _spawn_ues(self, runtime: SliceRuntime) -> None:
        """Create the slice's UE population and attach it through the
        vEPC instance its EPC domain reported (none, no UEs)."""
        network_slice = runtime.network_slice
        slice_id = network_slice.slice_id
        if network_slice.plmn is None or network_slice.allocation is None or runtime.epc is None:
            return
        enb = self.allocator.ran.enb(network_slice.allocation.ran.enb_id)
        rng = self.streams.draws(f"ues-{slice_id}")
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

    def resize(self, runtime: SliceRuntime, throughput_mbps: float, fraction: float) -> None:
        """The one place a live slice changes size — a tenant's new
        throughput (:meth:`rescale`) or the overbooking engine's new
        fraction (:meth:`reconfigure`): the drivers re-dimension it
        (:func:`~repro.drivers.transaction.resize_everywhere` raises
        DriverError, compensated, before anything here moves), then the
        runtime's reservations and allocation, its fraction, the SLA and
        the calendar booking follow (:meth:`apply_size`)."""
        request = runtime.network_slice.request
        self._hold(runtime, resize_everywhere(
            self.registry, runtime.network_slice.slice_id, tenant_id=request.tenant_id,
            throughput_mbps=throughput_mbps, max_latency_ms=request.sla.max_latency_ms,
            duration_s=request.sla.duration_s, effective_fraction=fraction,
        ))
        self.apply_size(runtime, throughput_mbps, fraction)

    def apply_size(self, runtime: SliceRuntime, throughput_mbps: float, fraction: float) -> None:
        """A size's books, nothing southbound: the runtime's fraction, its
        SLA rebound at ``throughput_mbps`` and its calendar booking's
        demand — what :meth:`resize` applies once the drivers agreed, and
        what a standby's ready plane takes in place of a rebuild."""
        request = runtime.network_slice.request
        runtime.effective_fraction = fraction
        request.sla = replace(request.sla, throughput_mbps=throughput_mbps)
        # Keep the calendar booking in step with the commitment, so
        # admission sees what a shrink freed.
        if self.calendar.has(request.request_id):
            self.calendar.update_demand(
                request.request_id, self.allocator.size(request, fraction).demand
            )

    def rescale(self, runtime: SliceRuntime, throughput_mbps: float) -> None:
        """A tenant's new throughput for a live slice: its resize at an
        unchanged fraction, its profile's peak (set in place) and the
        ``slice.modified`` record; a DriverError leaves it unchanged."""
        self.resize(runtime, throughput_mbps, runtime.effective_fraction)
        runtime.profile.peak_mbps = throughput_mbps
        self.durable.journal(
            "slice.modified", slice_id=runtime.network_slice.slice_id,
            throughput_mbps=throughput_mbps,
        )

    def retire(self, runtime: SliceRuntime, terminal_state: SliceState, **event_fields) -> None:
        """The one way a live slice stops holding resources: runtime
        out, UEs detached, every domain released, calendar window
        freed, then the terminal transition with its ``slice.<state>``
        journal record and event.

        A backend's refused release is surfaced on the event feed and
        retried each monitoring epoch; meanwhile the PLMN stays out of
        the pool — handing it to a new slice while the old backend still
        serves under it would put two slices on one PLMN."""
        network_slice = runtime.network_slice
        slice_id = network_slice.slice_id
        request = network_slice.request
        del self.runtimes[slice_id]
        for ue in runtime.ues:
            if ue.attached:
                ue.detach()
        for domain, exc in self.releases.release(slice_id):
            self.events.emit(
                self.sim.now, "driver.release_failed", slice_id=slice_id,
                tenant_id=request.tenant_id, domain=domain, reason=str(exc),
            )
        network_slice.allocation = None
        if slice_id not in self.releases.stuck:
            self.plmn_pool.release(slice_id)
        if self.calendar.has(request.request_id):
            self.calendar.release(request.request_id)
        self._transition(network_slice, terminal_state)
        record_type = f"slice.{terminal_state.value}"
        event = self.events.append(
            self.sim.now, record_type, slice_id, request.tenant_id, **event_fields
        )
        self.durable.journal(record_type, event, slice_id=slice_id)

    def expire(self, slice_id: str) -> None:
        """Retire an ACTIVE slice as EXPIRED, its SLA books on the event (its
        timer, or a tenant's early exit); one already gone is left alone."""
        runtime = self.runtimes.get(slice_id)
        if runtime is None:
            return
        network_slice = runtime.network_slice
        self.retire(
            runtime, SliceState.EXPIRED, violation_epochs=network_slice.violation_epochs,
            served_epochs=network_slice.served_epochs,
        )

    # ------------------------------------------------------------------
    # The epoch: heal, serve, books, overbooking
    # ------------------------------------------------------------------
    def _draw_profiles(self, runtimes: List[SliceRuntime]) -> None:
        """Draw each runtime's profile: :meth:`default_profile`'s, bit for
        bit, a few one by one and more in one numpy batch."""
        from repro.traffic.verticals import vertical_for

        if len(runtimes) < BATCHED_DRAWS:
            for runtime in runtimes:
                runtime.profile = self.default_profile(runtime.network_slice.request)
            return
        requests = [runtime.network_slice.request for runtime in runtimes]
        drawn = self.streams.draws_many(["api-profile-" + r.request_id for r in requests], 2)
        for runtime, request, units in zip(runtimes, requests, drawn.tolist()):
            runtime.profile = vertical_for(request.service_type).sample_profile(
                request.sla.throughput_mbps, DrawnUniforms(iter(units))
            )

    def default_profile(self, request: SliceRequest) -> TrafficProfile:
        """The vertical-preset traffic profile for a request: the one the
        v1 API attaches at creation, and the one recovery (and its queued
        installs) draws again when the original object died with the
        old process — the same shape, since both read the same key.
        Keyed by request id, never a shared stream, so drawing it late
        (a re-adoption) moves no other draw; the peak is the current
        throughput."""
        from repro.traffic.verticals import vertical_for

        spec = vertical_for(request.service_type)
        rng = self.streams.draws(f"api-profile-{request.request_id}")
        return spec.sample_profile(request.sla.throughput_mbps, rng)

    def epoch(self, rng: np.random.Generator, overbooking: Any) -> Dict[str, SliceRuntime]:
        """One monitoring epoch's per-slice work: heal, then demand →
        serve → cap → SLA check over the ACTIVE slices in one array
        pass, then each one's books — demand history, forecaster fold,
        SLA count, penalty and ``sla.violation`` event, the adaptive
        policy's observation — and the fleet's multiplexing gain.
        Returns the ACTIVE slices, in slice-id order.  The releases a
        backend refused are asked again first."""
        now = self.sim.now
        if self.releases.stuck:
            for slice_id, domains in self.releases.retry():
                self.plmn_pool.release(slice_id)
                self.events.emit(
                    now, "driver.release_recovered", slice_id=slice_id,
                    tenant_id=self.index.records[slice_id].request.tenant_id,
                    domains=list(domains),
                )
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
                self._hold(runtime, {driver.domain: repaired})
                self.events.emit(
                    self.sim.now,
                    "slice.path_repaired",
                    slice_id=slice_id,
                    tenant_id=network_slice.request.tenant_id,
                )

    def reconfigure(self, active: Dict[str, SliceRuntime], overbooking: Any) -> None:
        """The overbooking step — the "dynamic configuration solution that
        maximizes the statistical multiplexing of network slices
        resources": each slice of ``active`` whose history is long enough
        to trust and whose effective fraction the policy moves by 0.02 or
        more (shrunk to the forecast's safe level, or grown back toward
        nominal) is resized as decided, each move journaled with its
        ``slice.reconfigured`` event.

        The policy is handed the slice's runtime as its forecaster: a
        model is built (:attr:`forecaster_factory`) and fitted when a
        policy first reads it, and refitted only when stale; in between
        the epoch folds each sample in, which leaves it equal to a refit
        on the history.  A policy that reads no forecast never pays for one.
        """
        for slice_id, runtime in active.items():
            if len(runtime.demand_history) < self.config.min_history_for_forecast:
                continue
            runtime.forecaster_factory = self.forecaster_factory
            request = runtime.network_slice.request
            try:
                decision = overbooking.decide(
                    slice_id, request.sla.throughput_mbps, forecaster=runtime
                )
            except ForecastError:
                continue  # the fit refused the history: no decision this time
            old_fraction, new_fraction = runtime.effective_fraction, decision.fraction
            if abs(new_fraction - old_fraction) < 0.02:
                continue
            try:
                self.resize(runtime, request.sla.throughput_mbps, new_fraction)
            except DriverError:
                # Growing back may not fit if newcomers took the space —
                # the overbooking risk surfaces as SLA violations instead.
                continue
            event = self.events.append(
                self.sim.now, "slice.reconfigured", slice_id, request.tenant_id,
                old_fraction=old_fraction, new_fraction=new_fraction,
            )
            self.durable.journal(
                "slice.reconfigured", event, slice_id=slice_id, fraction=new_fraction
            )

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
