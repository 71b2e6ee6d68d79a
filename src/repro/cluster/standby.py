"""Journal-tailing warm standby with lease-watch promotion.

The standby is the survivability half of the sharded control plane: a
second worker that folds one shard's write-ahead journal *as it is
written* into a live :class:`~repro.store.codec.ReplayState` image (its
lag is bounded by its polling cadence) and watches the shard's
:class:`~repro.cluster.lease.Lease`.

As it tails it keeps a **ready plane**: the orchestrator a promotion
would build, wired to the shard's surviving southbound but over no store
(it opens nothing for writing and journals nothing), holding each live
slice of the fold *built* — its record and runtime, PLMN claim, calendar
window, index entry and drawn traffic profile — by the adoption's own
build step (:func:`~repro.store.recovery.build_from_images`), each in
its journaled state at its journaled instants.  A poll takes an activation (``slice.activated``) and a
rescale (``slice.modified``: the fleet's ``apply_size`` books, then the
profile's peak) in place on the built slice; it unbuilds each other
slice whose image its folded records changed, added or dropped (the
fold's ``ReplayState.changed``; a ``recovery.rebased`` changes every
one, a ``driver.*`` record none) and builds it again from its new
image; a snapshot jump rebuilds the plane's fleet.  Every built instant
is a journaled one, none read off a clock, so no part of the plane
depends on when the leader dies.

When the heartbeat goes stale, :meth:`WarmStandby.promote` takes the
lease with a bumped epoch (fencing a merely paused leader), folds the
replay lag (building what it touched), opens the store over the
standby's journal index and hands the plane and the fold to the
:class:`~repro.store.recovery.RecoveryManager` reconciliation a restart
runs: the plane's simulator runs, empty, to the fold's time — the shard
has one clock, and the rebase shifts nothing — the southbound is listed,
and what it still holds is *bound*: each runtime takes its reservations
straight from the per-domain listing, then composed allocation, vEPC
instance, activation and expiry timers in one batch, and the
``slice.adopted`` events in one batch.  One ``recovery.rebased`` record states it,
then ``recovery.completed``, and no checkpoint, so feed cursors hold.  A
cold restart builds and binds back to back, through the same two steps.

Re-arming the shard costs nothing inside the outage: for a shard a
promotion took over, :meth:`~repro.cluster.shard.ControlPlaneCluster.standby_for`
first drops the deposed plane the adoption kept, stopped, so it is freed
by reference counting there — after the new leader served, and before
the successor's plane is built, so the two never stack in memory.  It
then arms the standby from the serving leader, with a copy of its fold,
its last LSN and its journal index, and builds the ready plane around a
clone of each live slice's request (``SliceRequest.clone``, the frozen
``SLA`` shared: the leader rebinds ``sla``, never writes into one).  The first poll folds
what the leader journaled since: no snapshot, no rebase.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.api.rest import RestApi
from repro.api.v1 import build_v1_api
from repro.cluster.lease import Lease
from repro.core.slices import SliceRequest, SliceState
from repro.store.codec import ReplayState
from repro.store.journal import JournalTail
from repro.store.recovery import RecoveryManager, build_from_images
from repro.store.snapshot import SnapshotStore
from repro.store.store import ControlPlaneStore, shard_directory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.service import SliceService
    from repro.core.orchestrator import Orchestrator
    from repro.store.recovery import RecoveryReport


#: Records a built slice takes in place when nothing else in the poll changed it.
IN_PLACE = frozenset({"slice.activated", "slice.modified"})


class StandbyError(RuntimeError):
    """Raised on standby misuse (promoting over a live leader, ...)."""


@dataclass
class PromotionReport:
    """Everything a completed promotion produced."""

    shard_id: int
    recovery_s: float  # wall clock, lease takeover -> reconciled
    replay_lag_records: int  # what the final poll folded: the records
    #                          the standby had not yet tailed (a
    #                          snapshot it had to jump to counts one)
    report: "RecoveryReport"  # the RecoveryManager reconciliation
    orchestrator: "Orchestrator"
    service: "SliceService"
    api: RestApi
    lease: Lease
    replay_floor_lsn: int = 0  # durable-cursor floor: the last snapshot's LSN
    trace: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe image (the failover drill's artifact payload)."""
        return {
            "shard_id": self.shard_id,
            "recovery_s": self.recovery_s,
            "replay_lag_records": self.replay_lag_records,
            "replay_floor_lsn": self.replay_floor_lsn,
            "lease_epoch": self.lease.epoch,
            "recovery": self.report.to_dict(),
            "trace": dict(self.trace),
        }


class WarmStandby:
    """Tails one shard's WAL, keeps its ready plane; promotes itself when
    the lease goes stale.

    Args:
        shard_id: The shard being shadowed.
        store_root: The cluster's durability root (the standby resolves
            the same ``shard-<id>/`` namespace the leader journals to).
        rebuild: Factory returning a *fresh* ``(orchestrator, service)``
            wired to the shard's surviving southbound over a
            :class:`~repro.store.store.NullStore` — the "new process"
            promotion boots, kept as the ready plane.  Supplied by
            :meth:`~repro.cluster.shard.ControlPlaneCluster.standby_for`.
        lease_timeout_s: ``ClusterConfig.lease_timeout_s``, the staleness read as leader death.
        leader: A promoted shard's serving leader to start from (else cold).
    """

    def __init__(
        self,
        shard_id: int,
        store_root: str,
        rebuild: Callable[[], Tuple["Orchestrator", "SliceService"]],
        lease_timeout_s: float,
        leader: Optional["Orchestrator"] = None,
    ) -> None:
        self.shard_id, self._root = int(shard_id), store_root
        self.directory = shard_directory(store_root, self.shard_id)
        self._snapshots = SnapshotStore(self.directory)
        self.lease = Lease(
            os.path.join(self.directory, Lease.FILENAME),
            owner=f"shard-{self.shard_id}-standby",
            timeout_s=lease_timeout_s,
        )
        #: LSN folded through; -1 before anything, so that even a
        #: snapshot at LSN 0 (a checkpoint before any record) is ahead.
        self.state, self.applied_lsn = ReplayState(), -1
        self._tail = JournalTail(os.path.join(self.directory, "journal.jsonl"))
        #: The ready plane (module docstring), its service facade and v1 API.
        self.plane: Optional["Orchestrator"]
        self.plane, self.service = rebuild()
        self.api = build_v1_api(self.service)
        requests: Dict[str, SliceRequest] = {}
        if leader is not None:
            self.state = ReplayState.from_dict(leader.durable.fold.to_dict())
            self.applied_lsn, self._tail = leader.store.last_lsn, leader.store.journal.index()
            for runtime in leader.fleet.runtimes.values():
                clone = runtime.network_slice.request.clone()
                requests[clone.request_id] = clone
        build_from_images(self.plane, list(self.state.live.values()), requests)
        #: The tail's re-index count as last seen: a snapshot can be ahead
        #: of the fold only after the journal was rewritten (or first read).
        self._reindexed = self._tail.reindexed
        self.polls = 0
        self.promoted: Optional[PromotionReport] = None

    # ------------------------------------------------------------------
    # Tailing
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Fold everything the leader journaled past our position and
        bring the ready plane to it; returns the number of records
        applied.  After a leader checkpoint compacted away records not
        yet folded, the standby jumps to the snapshot (LSNs are
        monotonic across compactions); it lists the snapshots only when
        one can be ahead: the journal was rewritten, or a folded
        ``checkpoint.written`` names an LSN past its position."""
        records, applied, jumped = self._tail.records(self.applied_lsn), 0, False
        ahead = self._tail.reindexed != self._reindexed or any(
            r.record_type == "checkpoint.written" and r.data["lsn"] > self.applied_lsn
            for r in records
        )
        self._reindexed = self._tail.reindexed
        # Snapshot LSNs are in the file names: parse one only when ahead.
        if ahead and any(lsn > self.applied_lsn for lsn in self._snapshots.list_lsns()):
            loaded = self._snapshots.load_latest()
            if loaded is not None and loaded[1] > self.applied_lsn:
                snapshot, self.applied_lsn = loaded
                self.state, jumped = ReplayState.from_dict(snapshot), True
                records = [record for record in records if record.lsn > self.applied_lsn]
                applied += 1
        changed = self.state.changed
        built = {} if jumped or self.plane is None else self.plane.fleet.runtimes
        for record in records:
            kind, data = record.record_type, record.data
            slice_id = data.get("slice_id")
            # The changes a built slice takes in place: its image moves to
            # ACTIVE at this instant, or to a new throughput, and nothing else.
            in_place = kind in IN_PLACE and slice_id in built and slice_id not in changed
            self.state.apply(kind, record.time, data)
            if in_place:
                changed.discard(slice_id)
                runtime = built[slice_id]
                if kind == "slice.activated":
                    self.plane.slice_index.transition(
                        runtime.network_slice, SliceState.ACTIVE, record.time
                    )
                else:  # the leader's rescale, its books alone
                    throughput_mbps = data["throughput_mbps"]
                    self.plane.fleet.apply_size(
                        runtime, throughput_mbps, runtime.effective_fraction
                    )
                    runtime.profile.peak_mbps = throughput_mbps
            self.applied_lsn = record.lsn
            applied += 1
        self._ready(None if jumped else changed)
        changed.clear()
        self.polls += 1
        return applied

    def _ready(self, changed: Optional[Set[str]]) -> None:
        """Bring the ready plane to the fold: unbuild each slice the fold
        ``changed`` (its image changed, was added or dropped) and build
        again those it holds live; on ``None`` (a snapshot jump), unbuild
        every slice and build the fold's."""
        if self.plane is None:
            return  # promoted: the plane leads the shard now
        fleet, live = self.plane.fleet, self.state.live
        if changed is None:
            fleet.unbuild(list(fleet.runtimes))
            names = list(live)
        else:
            names = sorted(changed)  # a set's order varies from process to process
            fleet.unbuild([slice_id for slice_id in names if slice_id in fleet.runtimes])
        build_from_images(self.plane, [live[s] for s in names if s in live])

    def lag_records(self) -> int:
        """Records the leader has journaled that we have not folded —
        the standby's replication lag, bounded by its polling cadence."""
        return len(self._tail.records(self.applied_lsn))

    def leader_alive(self) -> bool:
        """Whether the lease heartbeat is still fresh."""
        return not self.lease.is_stale()

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def tick(self) -> Optional[PromotionReport]:
        """One watch cycle: tail the journal, and if the leader's
        heartbeat has gone stale, promote.  Returns the promotion
        report when a promotion happened, else None."""
        self.poll()
        if self.leader_alive():
            return None
        return self.promote()

    def promote(self, force: bool = False) -> PromotionReport:
        """Take over the shard (see the module docstring for the
        protocol).  ``force`` skips the staleness check — drills use it
        to exercise fencing of a paused-but-alive leader.

        Raises:
            StandbyError: When the leader's lease is still fresh and
                ``force`` is not set.
        """
        if self.promoted is not None:
            return self.promoted
        started = _time.monotonic()
        pre_promotion_lsn = self.applied_lsn
        if not self.lease.acquire(force=force):
            raise StandbyError(
                f"shard {self.shard_id} leader lease is still fresh; "
                "refusing to split-brain (use force=True to fence it)"
            )
        self.state.records_applied = 0  # recovery reports what is folded from here on
        replay_lag = self.poll()
        orchestrator, config = self.plane, self.plane.config
        # The new leader's journal owns our index (it appends to it); it folds on from ours.
        orchestrator.attach_store(ControlPlaneStore(
            self._root, config.journal_fsync_every, config.checkpoint_every_records,
            self.shard_id, self._tail,
        ))
        orchestrator.attach_lease(self.lease)
        report = RecoveryManager(orchestrator).restore(self.state)
        self.state, self.applied_lsn, self._tail = ReplayState(), -1, JournalTail(self._tail.path)
        self.plane = None
        recovery_s = _time.monotonic() - started
        self.promoted = PromotionReport(
            shard_id=self.shard_id,
            recovery_s=recovery_s,
            replay_lag_records=replay_lag,
            report=report,
            orchestrator=orchestrator,
            service=self.service,
            api=self.api,
            lease=self.lease,
            replay_floor_lsn=orchestrator.store.snapshot_lsn,
            trace={
                "standby_polls": self.polls,
                "standby_applied_lsn": pre_promotion_lsn,
            },
        )
        return self.promoted


__all__ = ["PromotionReport", "StandbyError", "WarmStandby"]
