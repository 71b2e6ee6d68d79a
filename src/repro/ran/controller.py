"""RAN domain controller.

One of the three hierarchical controllers of Fig. 1.  It owns every eNB,
answers the orchestrator's availability queries, installs/resizes/
removes per-slice PRB reservations, runs the slice-aware scheduler each
monitoring epoch and reports delivered throughput per slice.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.slices import PLMN
from repro.ran.enb import ENodeB, RanConfigError
from repro.ran.scheduler import SchedulerError, SliceAwareScheduler


@dataclass(frozen=True)
class RanAllocation:
    """Result of installing a slice on the RAN.

    Attributes:
        enb_id: Serving cell.
        nominal_prbs: PRBs the SLA implies at the dimensioning CQI.
        effective_prbs: PRBs actually committed (post-overbooking).
        latency_ms: RAN-segment latency contribution (HARQ + scheduling).
    """

    enb_id: str
    nominal_prbs: int
    effective_prbs: int
    latency_ms: float


#: One-way user-plane latency of the LTE access segment (scheduling + HARQ).
RAN_SEGMENT_LATENCY_MS = 4.0


@dataclass
class PlannedCellLoad:
    """Load a batch planner has promised to a cell but not installed yet.

    Attributes:
        prbs: Effective PRBs staged onto the cell.
        slices: Staged slice count (each consumes a PLMN broadcast slot).
    """

    prbs: int = 0
    slices: int = 0

    def add(self, prbs: int) -> None:
        self.prbs += prbs
        self.slices += 1


class RanController:
    """Controller managing a fleet of eNBs."""

    def __init__(self, enbs: Optional[List[ENodeB]] = None) -> None:
        self._enbs: Dict[str, ENodeB] = {}
        self._placement: Dict[str, str] = {}  # slice_id -> enb_id
        # Delta-maintained free-capacity index: ``_index`` is a sorted
        # list of ``(free_prbs, -seq, enb_id)`` entries (one per cell,
        # ascending), where ``seq`` is the cell's registration order so
        # ties resolve exactly like the historical full scan (earliest
        # registered cell wins).  ``_entry`` maps each cell to its
        # current index entry, ``_total_free`` is the running fleet-wide
        # free-PRB sum.  Updated via each cell's ``on_change`` hook, so
        # direct eNB mutations keep the index fresh too.
        self._index: List[Tuple[int, int, str]] = []
        self._entry: Dict[str, Tuple[int, int, str]] = {}
        self._seq: Dict[str, int] = {}
        # Per cell, in registration order (a cell's reference CQI and
        # carrier are fixed at construction): what serve_epoch reads.
        self._per_prb = np.zeros(0)
        self._total_prbs = np.zeros(0, dtype=np.int64)
        self._total_free = 0
        #: Bumped whenever a cell is registered; consumers caching
        #: derived per-cell state (the allocator's uplink aggregates)
        #: use it to notice fleet growth cheaply.
        self.inventory_version = 0
        for enb in enbs or []:
            self.add_enb(enb)

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def add_enb(self, enb: ENodeB) -> None:
        """Register a cell with the controller."""
        if enb.enb_id in self._enbs:
            raise RanConfigError(f"duplicate eNB id {enb.enb_id}")
        self._enbs[enb.enb_id] = enb
        seq = len(self._seq)
        self._seq[enb.enb_id] = seq
        self._per_prb = np.append(self._per_prb, enb.throughput_per_prb())
        self._total_prbs = np.append(self._total_prbs, enb.grid.total_prbs)
        entry = (enb.grid.free_prbs, -seq, enb.enb_id)
        insort(self._index, entry)
        self._entry[enb.enb_id] = entry
        self._total_free += entry[0]
        self.inventory_version += 1
        enb.on_change = lambda enb_id=enb.enb_id: self._index_update(enb_id)

    def _index_update(self, enb_id: str) -> None:
        """Re-slot one cell in the free-capacity index after a mutation."""
        enb = self._enbs[enb_id]
        old = self._entry[enb_id]
        free = enb.grid.free_prbs
        if free == old[0]:
            return
        self._index.pop(bisect_left(self._index, old))
        entry = (free, old[1], enb_id)
        insort(self._index, entry)
        self._entry[enb_id] = entry
        self._total_free += free - old[0]

    def verify_index(self) -> None:
        """Cross-check the delta-maintained index against a recompute.

        Raises:
            RanConfigError: If any index entry, the sort order, or the
                running free-PRB total drifted from ground truth.
        """
        if sorted(self._index) != self._index:
            raise RanConfigError("free-capacity index is out of order")
        if len(self._index) != len(self._enbs) or len(self._entry) != len(self._enbs):
            raise RanConfigError("free-capacity index size drifted from inventory")
        total = 0
        for enb_id, enb in self._enbs.items():
            free = enb.grid.free_prbs
            total += free
            expected = (free, -self._seq[enb_id], enb_id)
            if self._entry.get(enb_id) != expected:
                raise RanConfigError(
                    f"index entry for {enb_id} is {self._entry.get(enb_id)}, "
                    f"expected {expected}"
                )
            if self._index[bisect_left(self._index, expected)] != expected:
                raise RanConfigError(f"index entry for {enb_id} missing from sorted list")
        if total != self._total_free:
            raise RanConfigError(
                f"running free-PRB total {self._total_free} drifted from {total}"
            )

    def enb(self, enb_id: str) -> ENodeB:
        """Lookup a cell by id."""
        try:
            return self._enbs[enb_id]
        except KeyError:
            raise RanConfigError(f"unknown eNB {enb_id}") from None

    def enbs(self) -> List[ENodeB]:
        """All registered cells."""
        return list(self._enbs.values())

    def serving_enb_of(self, slice_id: str) -> Optional[str]:
        """Cell currently hosting ``slice_id`` (None if not installed)."""
        return self._placement.get(slice_id)

    # ------------------------------------------------------------------
    # Availability / admission support
    # ------------------------------------------------------------------
    def total_free_prbs(self) -> int:
        """Fleet-wide free PRBs — O(1) via the running total."""
        return self._total_free

    def max_free_prbs(self) -> int:
        """Largest per-cell free-PRB count — O(1) via the sorted index."""
        return self._index[-1][0] if self._index else 0

    def best_enb_for(
        self,
        throughput_mbps: float,
        effective_prbs: int,
        planned: Optional[Dict[str, "PlannedCellLoad"]] = None,
    ) -> Optional[str]:
        """Pick the cell for a new slice: most free PRBs that still fit.

        A cell qualifies if it has a free PLMN broadcast slot and at
        least ``effective_prbs`` free PRBs.  Returns None when no cell
        qualifies (the admission engine then rejects on the RAN domain).

        Answered from the delta-maintained sorted index: staged
        (``planned``) cells are evaluated individually with their
        pending adjustment, then the index is walked from the top and
        stops at the first unencumbered cell with a free PLMN slot.
        Ties on free PRBs resolve to the earliest-registered cell,
        exactly like the historical full scan.

        Args:
            planned: Load already promised to not-yet-installed slices,
                per cell — the batch install planner stages a whole
                admission burst against one capacity snapshot, so each
                pick must account for the picks before it or every
                winner lands on the same "best" cell.
        """
        planned = planned or {}
        best: Optional[str] = None
        best_key: Optional[Tuple[int, int]] = None  # (free, -seq), max wins
        for enb_id, pending in planned.items():
            enb = self._enbs.get(enb_id)
            if enb is None:
                continue
            if enb.installed_count() + pending.slices >= enb.max_plmns:
                continue
            free = enb.grid.free_prbs - pending.prbs
            if free < effective_prbs:
                continue
            key = (free, -self._seq[enb_id])
            if best_key is None or key > best_key:
                best, best_key = enb_id, key
        for free, neg_seq, enb_id in reversed(self._index):
            if free < effective_prbs:
                break
            if best_key is not None and (free, neg_seq) <= best_key:
                break
            if enb_id in planned:
                continue
            enb = self._enbs[enb_id]
            if enb.installed_count() >= enb.max_plmns:
                continue
            best = enb_id
            break
        return best

    # ------------------------------------------------------------------
    # Slice lifecycle
    # ------------------------------------------------------------------
    def install_slice(
        self,
        slice_id: str,
        plmn: PLMN,
        throughput_mbps: float,
        effective_fraction: float = 1.0,
        enb_id: Optional[str] = None,
    ) -> RanAllocation:
        """Reserve radio resources for a slice.

        Args:
            slice_id: Slice to install.
            plmn: PLMN identity to broadcast for it.
            throughput_mbps: SLA throughput, converted to nominal PRBs at
                the cell's reference CQI.
            effective_fraction: Overbooking shrinkage in (0, 1]; the
                effective reservation is ``ceil(nominal × fraction)``.
            enb_id: Target cell; auto-selected when omitted.

        Raises:
            RanConfigError: If no cell can host the slice.
        """
        if not 0.0 < effective_fraction <= 1.0:
            raise RanConfigError(
                f"effective fraction must be in (0, 1], got {effective_fraction}"
            )
        if slice_id in self._placement:
            raise RanConfigError(f"slice {slice_id} already installed")
        # Dimension on any cell (reference CQI is uniform across the fleet).
        if not self._enbs:
            raise RanConfigError("no eNBs registered")
        probe = next(iter(self._enbs.values()))
        nominal = probe.prbs_for_throughput(throughput_mbps)
        effective = max(1, round(nominal * effective_fraction))
        target = enb_id or self.best_enb_for(throughput_mbps, effective)
        if target is None:
            raise RanConfigError(
                f"no eNB can host {effective} PRBs for slice {slice_id}"
            )
        enb = self.enb(target)
        nominal = enb.prbs_for_throughput(throughput_mbps)
        effective = max(1, round(nominal * effective_fraction))
        enb.install_slice(slice_id, plmn, nominal, effective)
        self._placement[slice_id] = target
        return RanAllocation(
            enb_id=target,
            nominal_prbs=nominal,
            effective_prbs=effective,
            latency_ms=RAN_SEGMENT_LATENCY_MS,
        )

    def modify_slice(
        self,
        slice_id: str,
        new_throughput_mbps: float,
        effective_fraction: float = 1.0,
    ) -> RanAllocation:
        """Re-dimension an installed slice: a new SLA throughput, a new
        overbooking fraction, or both.

        Keeps the slice on its current cell (no handover); the nominal
        PRB count is re-derived from the throughput and the effective
        commitment re-applied at ``effective_fraction``.

        Raises:
            RanConfigError: If the slice is unknown or the grown
                commitment does not fit the cell.
        """
        enb_id = self._placement.get(slice_id)
        if enb_id is None:
            raise RanConfigError(f"slice {slice_id} not installed")
        if not 0.0 < effective_fraction <= 1.0:
            raise RanConfigError(
                f"effective fraction must be in (0, 1], got {effective_fraction}"
            )
        enb = self._enbs[enb_id]
        nominal = enb.prbs_for_throughput(new_throughput_mbps)
        effective = max(1, round(nominal * effective_fraction))
        try:
            enb.renominate_slice(slice_id, nominal, effective)
        except Exception as exc:
            raise RanConfigError(str(exc)) from exc
        return RanAllocation(
            enb_id=enb_id,
            nominal_prbs=nominal,
            effective_prbs=effective,
            latency_ms=RAN_SEGMENT_LATENCY_MS,
        )

    def remove_slice(self, slice_id: str) -> None:
        """Release the slice's radio resources."""
        enb_id = self._placement.pop(slice_id, None)
        if enb_id is None:
            raise RanConfigError(f"slice {slice_id} not installed")
        self._enbs[enb_id].remove_slice(slice_id)

    # ------------------------------------------------------------------
    # Per-epoch service (monitoring input)
    # ------------------------------------------------------------------
    def cell_of(self, enb_id: str) -> int:
        """A cell's index in :meth:`serve_epoch` rows (registration
        order), -1 for a cell this controller does not have."""
        return self._seq.get(enb_id, -1)

    def serve_epoch(
        self,
        slice_ids: Sequence[str],
        cells: np.ndarray,
        demands_mbps: np.ndarray,
        effective_prbs: np.ndarray,
        priorities: np.ndarray,
    ) -> np.ndarray:
        """Serve one epoch of traffic: delivered Mb/s per row, row ``i``
        being slice ``slice_ids[i]`` with ``effective_prbs[i]`` on cell
        ``cells[i]`` (:meth:`cell_of`; -1 delivers nothing).  A slice
        wanting no more than its reservation gets its demand; a cell
        where one wants more runs :class:`SliceAwareScheduler` over its
        rows in installation order (unused reservations go to higher
        ``priorities`` first, so delivery can exceed a reservation).

        Raises:
            SchedulerError: If a cell's rows reserve more than its PRBs.
        """
        delivered = np.zeros(len(cells))
        on = np.flatnonzero(cells >= 0)
        if not on.size:
            return delivered
        cell = cells[on]
        rate = self._per_prb[cell]
        wanted = demands_mbps[on] / rate
        reserved = effective_prbs[on]
        held = np.bincount(cell, weights=reserved, minlength=len(self._per_prb))
        over = np.flatnonzero(held > self._total_prbs)
        if over.size:
            raise SchedulerError(
                f"reservations ({held[over[0]]:.0f}) exceed cell budget "
                f"({self._total_prbs[over[0]]})"
            )
        delivered[on] = wanted * rate
        contended = np.unique(cell[wanted > reserved]).tolist()
        enbs = list(self._enbs.values()) if contended else []
        for index in contended:
            enb = enbs[index]
            row_of = {slice_ids[row]: row for row in on[cell == index].tolist()}
            local = [s for s in enb.installed_slices() if s in row_of]
            per_prb = enb.throughput_per_prb()
            grants = SliceAwareScheduler(enb.grid.total_prbs).dispatch(
                {s: float(demands_mbps[row_of[s]]) / per_prb for s in local},
                {s: enb.grid.reservation(s).effective for s in local},
                priorities={s: int(priorities[row_of[s]]) for s in local},
            )
            for slice_id, prbs in grants.items():
                delivered[row_of[slice_id]] = prbs * per_prb
        return delivered

    def nominal_load(self) -> Tuple[int, int]:
        """(nominal PRBs reserved, total PRBs) fleet-wide: the two sums
        the multiplexing-gain tracker reads every epoch."""
        grids = [enb.grid for enb in self._enbs.values()]
        return (
            sum(g.nominal_reserved for g in grids),
            sum(g.total_prbs for g in grids),
        )

    def utilization(self) -> dict:
        """Domain telemetry: the dashboard snapshot and the metrics scrape read it."""
        nominal_reserved, total_prbs = self.nominal_load()
        return {
            "domain": "ran",
            "enbs": [enb.utilization() for enb in self._enbs.values()],
            "total_prbs": total_prbs,
            "effective_reserved": sum(
                e.grid.effective_reserved for e in self._enbs.values()
            ),
            "nominal_reserved": nominal_reserved,
        }


__all__ = [
    "PlannedCellLoad",
    "RAN_SEGMENT_LATENCY_MS",
    "RanAllocation",
    "RanController",
]
