"""Crash-recovery: rebuild control-plane state and reconcile southbound.

:class:`RecoveryManager.restore` is the restart path of an
orchestrator whose process died: take the folded image of the durable
store (a cold restart folds snapshot + journal tail itself; a promoted
warm standby hands over the one it already holds) as the new
process's own, which it folds its records into from then on; rebuild
the orchestrator/calendar/quota state from it, and — crucially —
**reconcile against the southbound**, because the domain controllers
(real hardware, or the long-lived simulator controllers in tests) kept
running while the control plane was down.

Reconciliation matrix (per slice × driver ground truth, where "ground
truth" is :meth:`~repro.drivers.base.DomainDriver.list_reservations`):

====================  =========================  ===========================
journal says          drivers say                recovery does
====================  =========================  ===========================
installed (acked)     COMMITTED in every domain  re-adopt: rebuild runtime,
                                                 calendar window, PLMN,
                                                 expiry/activation timers
installed (acked)     missing/partial            slice is *lost*: compensate
                                                 the partial residue, report
install started,      COMMITTED in every domain  re-adopt (the southbound
never acked                                      finished what the dead
                                                 process started)
install started,      partial (PREPARED holds,   compensate the residue as
never acked           some domains missing)      orphans, then install it
                                                 again in the queued batch
queued, no install    —                          install it in the queued
(previous format)                                batch
(nothing)             any reservation            orphan: rollback PREPARED,
                                                 release COMMITTED
====================  =========================  ===========================

Pending advance bookings are re-promised on the calendar with their
windows rebased to the new clock.  Re-adoption is one in-memory batch
pass over every fully-COMMITTED slice.  Once per batch: the fleet is
sized off one cell and one vEPC read, the calendar windows enter the
index by one sort, the timer callbacks are bound.  Per slice only what it owns:
request, record, PLMN, runtime, window, timer, event.  (The per-slice
loop before it also scanned the cells, sized anew, checked three
transitions, bisected the calendar twice, formatted the PLMN and
closed a lambda over two cells.)
Its one durable statement, and the recovery's commit point, is the
``recovery.rebased`` record written right after it: the clock shift
plus the exceptions of the reconciliation (lost slices, adopted
in-flight installs), which the replay fold applies to move its image
onto the new clock — O(change), not O(fleet).  A crash before that
record replays the *same* recovery from the same records; every record
after it is on the new clock.  No checkpoint closes a recovery: the
next auto-checkpoint compacts as it always does.

The rebase also moves the half-done installs and the bookings that fell
due during the outage into the fold's ``queued``, ahead of any queued
admission a previous format journaled.  Recovery reads ``queued`` once,
then, and installs it in that order as one batch under one group
commit, before it re-offers the broker's undecided requests: an
admitted request outranks an undecided one.
"""

from __future__ import annotations

import time as _time
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, TYPE_CHECKING

from repro.core.admission import TenantQuota
from repro.core.slices import ensure_request_counter_at_least
from repro.drivers.base import Reservation, ReservationState
from repro.drivers.transaction import HOLDING
from repro.store.codec import ReplayState, request_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.orchestrator import Orchestrator


class RecoveryError(RuntimeError):
    """Raised when recovery cannot proceed (e.g. durability disabled)."""


@dataclass
class RecoveryReport:
    """What a restart rebuilt, reconciled and compensated."""

    snapshot_lsn: int = 0
    replayed_records: int = 0
    slices_adopted: int = 0
    slices_lost: int = 0
    admissions_requeued: int = 0
    broker_requeued: int = 0
    bookings_restored: int = 0
    bookings_promoted: int = 0
    orphans_compensated: int = 0
    compensation_failures: int = 0
    quotas_restored: int = 0
    duration_s: float = 0.0
    lost_slice_ids: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class RecoveryManager:
    """Rebuilds a freshly constructed orchestrator from its durable
    store and reconciles it against the (surviving) southbound.

    Args:
        orchestrator: A *new, empty* orchestrator wired to the
            surviving driver registry and to the reopened store.
    """

    def __init__(self, orchestrator: "Orchestrator") -> None:
        if not orchestrator.store.enabled:
            raise RecoveryError("orchestrator has no durable store to recover from")
        self.orchestrator = orchestrator

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def restore(
        self,
        state: Optional[ReplayState] = None,
        requests: Mapping[str, tuple] = MappingProxyType({}),
    ) -> RecoveryReport:
        """Rebuild state from the fold, reconcile the southbound.

        ``state`` is the folded store image, ``records_applied``
        counting what was folded for this recovery: a standby's final
        catch-up, or (``None``: folded from disk here) the journal tail
        past the snapshot.  ``requests`` holds a warm standby's decoded
        requests (slice id → (request dict, request)); an image whose
        dict is not the one held there is decoded here.  Every line
        after the fold is shared.

        Returns the :class:`RecoveryReport`; the ``recovery.rebased``
        record follows the adoption, and the ``recovery.completed``
        record carrying its event closes the recovery, both under the
        journal's ordinary group commit; the queued installs between
        them commit as one group.
        """
        started = _time.monotonic()
        orch = self.orchestrator
        report = RecoveryReport()
        if state is None:
            state = orch.store.replay()
        report.snapshot_lsn = orch.store.snapshot_lsn
        report.replayed_records = state.records_applied
        crash_time = state.time
        # Fresh processes restart the global request counter; recovered
        # ids must never be re-issued to new requests.  The fold's
        # high-water mark covers *every* journaled id — including
        # slices that terminated before the crash, whose images are
        # gone from the live/queued sets.
        if state.last_request_ordinal:
            ensure_request_counter_at_least(state.last_request_ordinal)
        # Resume feed numbering BEFORE anything below emits: adoption
        # events must not reuse pre-crash sequence numbers (consumer
        # cursors rely on seqs rising monotonically across restarts).
        orch.events.resume_from(state.last_event_seq)

        # This process folds what it journals into ``state`` from here
        # on, and recovery's first record, its rebase, moves it: the
        # bookings' old-clock starts and the re-offers are read before.
        orch.durable.seed(state)
        advance = [(rid, e["request"], e["start_time"]) for rid, e in state.advance.items()]
        offered = [p for rid, p in state.broker_pending.items() if rid not in state.queued]
        truth = self._southbound_truth()
        adopted_ids = self._reconcile_slices(state, requests, truth, crash_time, report)
        self._compensate_orphans(truth, adopted_ids, report)
        self._restore_bookings(advance, crash_time, report)
        self._install_queued(report)
        self._requeue_broker_windows(offered, report)
        self._restore_quotas(state, report)
        report.duration_s = _time.monotonic() - started
        event = orch.events.append(
            orch.sim.now, "recovery.completed", adopted=report.slices_adopted,
            lost=report.slices_lost, requeued=report.admissions_requeued,
            compensated=report.orphans_compensated,
        )
        # Wall-clock duration stays out of the journal: same run, same bytes.
        journaled = {k: v for k, v in report.to_dict().items() if k != "duration_s"}
        orch.durable.journal("recovery.completed", event, report=journaled)
        return report

    # ------------------------------------------------------------------
    # Southbound ground truth
    # ------------------------------------------------------------------
    def _southbound_truth(self) -> Dict[str, Dict[str, Reservation]]:
        """domain → slice_id → live reservation, straight from drivers."""
        return {
            driver.domain: {r.slice_id: r for r in driver.list_reservations()}
            for driver in self.orchestrator.registry.drivers()
        }

    # ------------------------------------------------------------------
    # Slice reconciliation
    # ------------------------------------------------------------------
    def _reconcile_slices(
        self,
        state: ReplayState,
        requests: Mapping[str, tuple],
        truth: Dict[str, Dict[str, Reservation]],
        crash_time: float,
        report: RecoveryReport,
    ) -> set:
        """One planning pass: decide every slice, adopt the survivors in
        memory as one batch and journal the rebase that states it; the
        rebase moves the half-done installs into the fold's ``queued``."""
        orch = self.orchestrator
        # One shift moves every journaled instant onto the new clock.
        shift = orch.sim.now - crash_time
        adoptions: List[tuple] = []
        # The slices COMMITTED in every domain, by one set per domain.
        committed = ReservationState.COMMITTED
        everywhere = set.intersection(*(
            {s for s, r in held.items() if r.state is committed} for held in truth.values()
        )) if truth else set()
        # Acknowledged installs first (their calendar promises outrank
        # everything), then never-acked in-flight installs.
        for slice_id, image in list(state.live.items()) + list(state.in_flight.items()):
            if slice_id in everywhere:
                # Adopt it, its instants moved onto the new clock.
                payload, known = image["request"], requests.get(slice_id)
                request = known[1] if known and known[0] is payload else request_from_dict(payload)
                window = image.get("window")
                adoptions.append((
                    request, image.get("plmn"), image.get("fraction", 1.0),
                    {domain: held[slice_id] for domain, held in truth.items()},
                    image.get("installed_at", image.get("started_at", crash_time)) + shift,
                    image["activated_at"] + shift if image.get("status") == "active" else None,
                    window[1] + shift if window else None,
                ))
            elif slice_id in state.live:
                # Journal promised this slice; the southbound lost it.
                report.slices_lost += 1
                report.lost_slice_ids.append(slice_id)
            # Else never acknowledged: the admission survives (the
            # rebase queues it), the half-done install does not.
        # One adoption call for the fleet; it journals nothing, so a
        # crash inside it leaves the records a retry replays.
        adopted = {s.slice_id for s in orch.adopt_recovered_slices(adoptions)}
        report.slices_adopted = len(adopted)
        # What the fold cannot derive for an adopted in-flight install:
        # the window its go-live promised, the reservations drivers hold.
        adopted_in_flight = {}
        for slice_id, image in state.in_flight.items():
            if slice_id in adopted:
                booking = orch.calendar.get(image["request"]["request_id"])
                adopted_in_flight[slice_id] = {
                    "window": [booking.start, booking.end],
                    "reservations": {
                        domain: held[slice_id].reservation_id for domain, held in truth.items()
                    },
                }
        orch.durable.journal(
            "recovery.rebased", shift=shift, crash_time=crash_time,
            lost=report.lost_slice_ids, adopted_in_flight=adopted_in_flight,
            last_event_seq=orch.events.last_seq,
        )
        return adopted

    # ------------------------------------------------------------------
    # Orphan compensation
    # ------------------------------------------------------------------
    def _compensate_orphans(
        self,
        truth: Dict[str, Dict[str, Reservation]],
        adopted_ids: set,
        report: RecoveryReport,
    ) -> None:
        """Every reservation not adopted is residue of a dead install
        (or of a slice the journal already closed out): the planner
        rolls back the PREPARED ones and releases the COMMITTED ones as
        one batch on the registry clock, each under its driver's
        deadline.  One record per orphan says whether its undo landed."""
        orch = self.orchestrator
        orphans = [
            reservation
            for held in truth.values() if not held.keys() <= adopted_ids
            for slice_id, reservation in held.items()
            if slice_id not in adopted_ids and reservation.state in HOLDING
        ]
        for outcome in orch.planner.undo(orphans):
            orphan = outcome.job.tag
            if outcome.rollbacks:
                report.orphans_compensated += 1
            else:
                report.compensation_failures += 1
            orch.durable.journal_driver_record(
                "driver.compensated" if outcome.rollbacks else "driver.compensation_failed",
                orphan.domain, orphan.slice_id, orphan.reservation_id, reason="recovery orphan",
            )

    # ------------------------------------------------------------------
    # Calendar + queue + quotas
    # ------------------------------------------------------------------
    def _restore_bookings(
        self, advance: List[tuple], crash_time: float, report: RecoveryReport
    ) -> None:
        """Re-promise each booking the rebase left in the fold's
        ``advance``, its start as far out as at the crash; the rest fell
        due during the outage and wait in ``queued``."""
        orch = self.orchestrator
        pending = orch.durable.fold.advance
        for request_id, payload, start_time in advance:
            if request_id in pending:
                orch.restore_advance_booking(
                    request_from_dict(payload), start_in_s=start_time - crash_time
                )
                report.bookings_restored += 1
            else:
                report.bookings_promoted += 1

    def _install_queued(self, report: RecoveryReport) -> None:
        """Install every request the rebased fold holds admitted and not
        installed, in its order, as one batch under one group commit:
        one fsync, none when nothing is queued.  A failed install is
        booked as a rejection, as any install's is."""
        orch = self.orchestrator
        queued = [request_from_dict(payload) for payload in orch.durable.fold.queued.values()]
        report.admissions_requeued = len(queued) - report.bookings_promoted
        if queued:
            with orch.store.batch():
                orch.install_admitted_batch(
                    [(request, orch.fleet.default_profile(request)) for request in queued]
                )

    def _requeue_broker_windows(self, offered: List[dict], report: RecoveryReport) -> None:
        """Re-offer requests that were sitting in a broker decision
        window the crash cut short (``broker.enqueued`` with no
        ``install.started`` or ``slice.rejected`` after it, and not
        queued).  Unlike queued admissions these were never *admitted*
        — the window died before deciding — so they go back through
        full online admission (``Orchestrator.submit``) once the
        admitted ones are installed; losers are booked as ordinary
        rejections.  The original ``on_decision`` callbacks died with
        the process."""
        orch = self.orchestrator
        for payload in offered:
            request = request_from_dict(payload)
            orch.submit(request, orch.fleet.default_profile(request))
            report.broker_requeued += 1

    def _restore_quotas(self, state: ReplayState, report: RecoveryReport) -> None:
        self.orchestrator.quotas.update(
            {tenant: TenantQuota(**payload) for tenant, payload in state.quotas.items()}
        )
        report.quotas_restored = len(state.quotas)


__all__ = ["RecoveryError", "RecoveryManager", "RecoveryReport"]
