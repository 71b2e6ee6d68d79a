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
installed (acked)     COMMITTED in every domain  re-adopt: build runtime,
                                                 calendar window, PLMN; bind
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

Pending advance bookings are re-promised on the calendar at the starts
they were booked for: the recovered plane continues the shard's one
clock (its empty simulator runs to the fold's time before anything is
adopted), so no journaled instant moves.  Re-adoption is two batch
steps.  The *build* (:func:`build_from_images`) makes each slice's
control-plane side from its image — record, runtime, PLMN claim,
calendar window, index entry, drawn profile — sizing the fleet off one
cell and one vEPC read and entering the windows by one sort; a warm
standby runs it as it tails, so its ready plane holds every live slice
built before the leader dies.  The *bind* (:func:`bind_recovered`), once
the southbound is listed, puts the reservations the drivers still hold
straight from that listing into each runtime's own map, gives each
slice the allocation they compose, its vEPC instance and its activation
or expiry timer (one batch on the simulator), and emits the
``slice.adopted`` events (one batch on the event log).  A cold restart
runs both back to back.
Its one durable statement, and the recovery's commit point, is the
``recovery.rebased`` record written right after it: ``shift`` 0 plus
the exceptions of the reconciliation (lost slices, adopted in-flight
installs), which the replay fold applies — O(change), not O(fleet);
the fold still moves every instant by the shift an older recovery,
which restarted its clock, journaled.  A crash before that record
replays the *same* recovery from the same records.  No checkpoint
closes a recovery: the next auto-checkpoint compacts as it always does.

The rebase also moves the half-done installs and the bookings that fell
due during the outage into the fold's ``queued``, ahead of any queued
admission a previous format journaled.  Recovery reads ``queued`` once,
then, and installs it in that order as one batch under one group
commit, before it re-offers the broker's undecided requests: an
admitted request outranks an undecided one.
"""

from __future__ import annotations

import itertools
import time as _time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.core.admission import TenantQuota
from repro.core.slices import SliceRequest, SliceState, ensure_request_counter_at_least
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
        orchestrator: A *new* orchestrator, not started, wired to the
            surviving driver registry and to the reopened store: empty,
            or a standby's ready plane holding the fold's live slices built.
    """

    def __init__(self, orchestrator: "Orchestrator") -> None:
        if not orchestrator.store.enabled:
            raise RecoveryError("orchestrator has no durable store to recover from")
        self.orchestrator = orchestrator

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def restore(self, state: Optional[ReplayState] = None) -> RecoveryReport:
        """Rebuild state from the fold, reconcile the southbound.

        ``state`` is the folded store image, ``records_applied``
        counting what was folded for this recovery: a standby's final
        catch-up, or (``None``: folded from disk here) the journal tail
        past the snapshot.  The orchestrator may hold a ready plane — the
        live slices of ``state`` built and not bound
        (:func:`build_from_images`), as a warm standby keeps one — and
        what it does not hold is built here; every line after the fold
        is shared.

        The plane continues the journal's clock: its simulator, which
        must be empty and not past the fold's time, runs to that time
        before anything is adopted, so the rebase shifts nothing.

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
        if orch.sim.pending or orch.sim.now > crash_time:
            raise RecoveryError(
                f"restore a plane before it starts, its clock empty and at most the "
                f"journal's t={crash_time} (it reads t={orch.sim.now})"
            )
        orch.sim.run_until(crash_time)
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
        adopted_ids = self._reconcile_slices(state, truth, crash_time, report)
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
        truth: Dict[str, Dict[str, Reservation]],
        crash_time: float,
        report: RecoveryReport,
    ) -> set:
        """One planning pass: decide every slice, adopt the survivors in
        memory as one batch — build what the plane does not hold yet,
        unbuild what the southbound lost, bind the rest — and journal the
        rebase that states it; the rebase moves the half-done installs
        into the fold's ``queued``."""
        orch = self.orchestrator
        fleet = orch.fleet
        # The slices COMMITTED in every domain, by one set per domain.
        committed = ReservationState.COMMITTED
        everywhere = set.intersection(*(
            {s for s, r in held.items() if r.state is committed} for held in truth.values()
        )) if truth else set()
        # Acknowledged installs first (their calendar promises outrank
        # everything), then never-acked in-flight installs.
        adopted = [s for s in itertools.chain(state.live, state.in_flight) if s in everywhere]
        lost = [s for s in state.live if s not in everywhere]
        report.slices_adopted, report.slices_lost = len(adopted), len(lost)
        report.lost_slice_ids = lost
        # A crash inside the adoption journals nothing: a retry replays
        # the same records.
        fleet.unbuild([s for s in fleet.runtimes if s not in everywhere])
        build_from_images(orch, [
            state.live.get(s) or state.in_flight[s] for s in adopted if s not in fleet.runtimes
        ])
        bind_recovered(orch, adopted, truth)
        # What the fold cannot derive for an adopted in-flight install:
        # the window its go-live promised, the reservations drivers hold.
        adopted_in_flight = {}
        for slice_id, image in state.in_flight.items():
            if slice_id in everywhere:
                booking = orch.calendar.get(image["request"]["request_id"])
                adopted_in_flight[slice_id] = {
                    "window": [booking.start, booking.end],
                    "reservations": {
                        domain: held[slice_id].reservation_id for domain, held in truth.items()
                    },
                }
        # One shard clock: the rebase moves no instant (the fold still
        # applies the shift an older recovery journaled).
        orch.durable.journal(
            "recovery.rebased", shift=0.0, crash_time=crash_time,
            lost=report.lost_slice_ids, adopted_in_flight=adopted_in_flight,
            last_event_seq=orch.events.last_seq,
        )
        return set(adopted)

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


def build_from_images(
    orchestrator: "Orchestrator", images: List[Dict[str, Any]],
    requests: Optional[Dict[str, SliceRequest]] = None,
) -> None:
    """Build (``Orchestrator.build_recovered_slices``) the slice of each
    image of a fold's ``live`` or ``in_flight``, its instants as
    journaled: a recovery's build step, and a warm standby's as it keeps
    its ready plane.  An image with no ``window`` (an in-flight
    install's) is promised from its admission.  A request is decoded
    from its image unless ``requests`` (request id → request) holds it."""
    if not images:
        return
    held = (requests or {}).get
    orchestrator.build_recovered_slices(
        (
            held(image["request"]["request_id"]) or request_from_dict(image["request"]),
            image.get("plmn"), image.get("fraction", 1.0),
            image["installed_at"] if "installed_at" in image else image["started_at"],
            image["activated_at"] if image.get("status") == "active" else None,
            image.get("window"),
        )
        for image in images
    )


def bind_recovered(
    orchestrator: "Orchestrator", slice_ids: List[str],
    truth: Dict[str, Dict[str, Reservation]],
) -> None:
    """A recovery's bind step: each built slice of ``slice_ids`` takes
    its reservation in every domain of ``truth`` (domain → slice id →
    live reservation, as listed) into its runtime's own map, the batch is
    bound at once (``LiveFleet.bind``: allocation, vEPC, timers), and
    the ``slice.adopted`` events follow as one batch, in order.  Nothing
    is journaled: the ``recovery.rebased`` record states the adoption."""
    runtimes = orchestrator.fleet.runtimes
    bound = [runtimes[slice_id] for slice_id in slice_ids]
    for domain, held in truth.items():
        for slice_id, runtime in zip(slice_ids, bound):
            runtime.reservations[domain] = held[slice_id]
    orchestrator.fleet.bind(bound)
    value_of = {state: state.value for state in SliceState}  # no Enum.value per slice
    orchestrator.events.append_many(orchestrator.sim.now, "slice.adopted", [
        (slice_id, runtime.network_slice.request.tenant_id,
         {"state": value_of[runtime.network_slice.state]})
        for slice_id, runtime in zip(slice_ids, bound)
    ])


__all__ = [
    "RecoveryError", "RecoveryManager", "RecoveryReport", "bind_recovered", "build_from_images",
]
