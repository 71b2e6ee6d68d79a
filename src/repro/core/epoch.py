"""The monitoring epoch's data-plane pass: demand → RAN serve → transport
cap → SLA check over every ACTIVE slice as one array pass, bit for bit
what the per-slice loop it replaced gave (``docs/ARCHITECTURE.md``, "The
hot path", says why).  A :class:`LiveSlots` row is re-read only when its
key moves: the identities of the slice's ``allocation``, ``request.sla``
and profile, and the profile's ``peak_mbps`` (set in place by
``modify_slice``).  Every allocation writer replaces the frozen object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.slices import SliceState
from repro.traffic.patterns import (
    ConstantProfile,
    DiurnalProfile,
    OnOffProfile,
    SpikeProfile,
    TrafficProfile,
)

if TYPE_CHECKING:  # pragma: no cover - the orchestrator imports this module
    from repro.core.orchestrator import Orchestrator, SliceRuntime

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
    ``active`` (the orchestrator's runtime order)."""

    active: Dict[str, "SliceRuntime"]
    demand: np.ndarray
    delivered: np.ndarray
    cap: np.ndarray  # the transport ceiling each row was held to
    violated: np.ndarray


def _grow(table: np.ndarray) -> np.ndarray:
    return np.concatenate([table, np.zeros((max(64, len(table)), table.shape[1]), table.dtype)])


class LiveSlots:
    """The live-slot table: one dense row per ACTIVE slice."""

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
        #: Rows read since construction (the epoch-upkeep gate counts them).
        self.refreshes = 0

    def _read(self, orch: "Orchestrator", slice_id: str, runtime: "SliceRuntime") -> tuple:
        """One slice's key, float row and integer row, off live state."""
        request = runtime.network_slice.request
        allocation = runtime.network_slice.allocation
        profile = orch.traffic_profile(runtime)
        kind, names = _SHAPES.get(type(profile), (OTHER, ()))
        if kind == OTHER and type(profile).demand is not TrafficProfile.demand:
            raise TypeError(f"{type(profile).__name__} overrides demand(); the pass draws it")
        shape = [getattr(profile, name) for name in names] + [0.0] * (3 - len(names))
        ran = orch.allocator.ran
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

    def sync(
        self, orch: "Orchestrator", runtimes: Dict[str, "SliceRuntime"]
    ) -> Tuple[Dict[str, "SliceRuntime"], np.ndarray]:
        """The ACTIVE slices of ``runtimes`` and their slots, in its order:
        a slice new to ACTIVE claims a slot, a row whose key moved is
        re-read, a slice no longer ACTIVE frees its slot."""
        slot_of, (allocations, slas, profiles, peaks) = self._slot_of, self._keys
        active: Dict[str, "SliceRuntime"] = {}
        order = []
        for slice_id, runtime in runtimes.items():
            network_slice = runtime.network_slice
            if network_slice.state is not SliceState.ACTIVE:
                continue
            active[slice_id] = runtime
            slot = slot_of.get(slice_id)
            if slot is None:
                slot = slot_of[slice_id] = self._free.pop() if self._free else len(peaks)
                if slot == len(peaks):
                    for column in self._keys:
                        column.append(None)
                    if slot == len(self._floats):
                        self._floats, self._ints = _grow(self._floats), _grow(self._ints)
            else:
                profile = runtime.profile
                if (
                    allocations[slot] is network_slice.allocation
                    and slas[slot] is network_slice.request.sla
                    and profiles[slot] is profile
                    and peaks[slot] == profile.peak_mbps
                ):
                    order.append(slot)
                    continue
            key, self._floats[slot], self._ints[slot] = self._read(orch, slice_id, runtime)
            allocations[slot], slas[slot], profiles[slot], peaks[slot] = key
            self.refreshes += 1
            order.append(slot)
        if len(slot_of) > len(order):
            for slice_id in [s for s in slot_of if s not in active]:
                self._free.append(slot_of.pop(slice_id))
                for column in self._keys:
                    column[self._free[-1]] = None
        return active, np.array(order, dtype=np.intp)

    def serve(
        self, orch: "Orchestrator", runtimes: Dict[str, "SliceRuntime"],
        rng: np.random.Generator,
    ) -> EpochOutcome:
        """Demand → RAN serve → transport cap → SLA check for the ACTIVE
        slices of ``runtimes``: one ``rng`` normal per row with σ > 0, in
        row order, and every row counted by ``orch.sla_monitor``."""
        active, order = self.sync(orch, runtimes)
        if not len(order):
            none = np.zeros(0)
            return EpochOutcome(active, none, none, none, none > 0)
        f, i = self._floats[order], self._ints[order]
        demand = self._demand(order, f, i[:, _KIND], orch.sim.now, rng)
        delivered = orch.allocator.ran.serve_epoch(
            list(active), i[:, _CELL], demand, i[:, _PRBS], i[:, _PRIORITY]
        )
        cap = f[:, _LINK_MBPS] + self._borrowable(i[:, _PATH], orch.allocator.transport.topology)
        cap = np.where(cap > 0.0, cap, 0.0)
        delivered = np.where(cap < delivered, cap, delivered)
        violated = orch.sla_monitor.check(demand, delivered, f[:, _SLA_MBPS])
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

    def verify(self, orch: "Orchestrator") -> None:
        """Check each ACTIVE slice's RAN allocation against its cell's
        grid, and re-read every row whose key is current and compare.

        Raises:
            LiveSlotsError: On the first allocation or row that drifted.
        """
        ran = orch.allocator.ran
        if sorted([*self._slot_of.values(), *self._free]) != list(range(len(self._keys[0]))):
            raise LiveSlotsError("a slot is lost, held twice, or held and free")
        for network_slice in orch.active_slices():
            slice_id, allocation = network_slice.slice_id, network_slice.allocation
            if allocation is not None:
                enb_id, prbs = allocation.ran.enb_id, allocation.ran.effective_prbs
                held = ran.enb(enb_id).grid.reservation(slice_id).effective
                if ran.serving_enb_of(slice_id) != enb_id or held != prbs:
                    raise LiveSlotsError(f"{slice_id}: allocated {prbs} PRBs on {enb_id}, "
                                         f"{held} held on {ran.serving_enb_of(slice_id)}")
            slot, runtime = self._slot_of.get(slice_id), orch.runtime(slice_id)
            if slot is None or runtime.profile is None:
                continue  # claimed (its profile drawn) at the next epoch
            key, floats, ints = self._read(orch, slice_id, runtime)
            held_key = [column[slot] for column in self._keys]
            if held_key[0] is _UNTRACKED or held_key[3] != key[3] or any(
                held is not read for held, read in zip(held_key[:3], key)
            ):
                continue  # stale by its key: re-read at the next epoch
            row = (tuple(self._floats[slot].tolist()), tuple(self._ints[slot].tolist()))
            if row != (floats, ints):
                raise LiveSlotsError(f"{slice_id}: row {row} != re-read {(floats, ints)}")


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
    for network_slice in orchestrator.live_slices():
        slice_id = network_slice.slice_id
        runtime = orchestrator.runtime(slice_id)
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


__all__ = ["EpochOutcome", "LiveSlots", "LiveSlotsError", "sim_gauges"]
