"""Journal-tailing warm standby with lease-watch promotion.

The standby is the survivability half of the sharded control plane: a
second worker that folds one shard's write-ahead journal *as it is
written* into a live :class:`~repro.store.codec.ReplayState` image (its
lag is bounded by its polling cadence) and watches the shard's
:class:`~repro.cluster.lease.Lease`.  When the heartbeat goes stale,
:meth:`WarmStandby.promote` takes the lease with a bumped epoch (fencing
a merely paused leader), folds the replay lag, rebuilds an orchestrator
over the *surviving* southbound and a store reopened over the standby's
journal index, and hands the fold to the
:class:`~repro.store.recovery.RecoveryManager` reconciliation a restart
runs: a batch re-adoption stated by one ``recovery.rebased`` record,
then ``recovery.completed`` and no checkpoint, so feed cursors hold.

A promotion decodes the lag, not the fleet: the standby keeps each live
and in-flight request decoded as it folds it (``requests``).  Per slice
it still pays for the southbound's reservations it reads and the batch
re-adoption (record, PLMN claim, runtime, calendar window, timer,
event); the deposed plane's free follows in ``adopt_promotion``.

Re-arming the shard costs nothing inside the outage: for a shard a
promotion took over, :meth:`~repro.cluster.shard.ControlPlaneCluster.standby_for`
arms the standby from the serving leader, with a copy of its fold, its
last LSN and its journal index, and per live slice a clone of its
request (the frozen ``SLA`` shared: the leader rebinds ``sla``, never
writes into one).  Only an install in flight is decoded, and the first
poll folds what the leader journaled since: no snapshot, no rebase.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, TYPE_CHECKING

from repro.api.rest import RestApi
from repro.api.v1 import build_v1_api
from repro.cluster.lease import Lease
from repro.core.slices import SliceRequest
from repro.store.codec import ReplayState, request_from_dict
from repro.store.journal import JournalTail
from repro.store.snapshot import SnapshotStore
from repro.store.store import shard_directory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.service import SliceService
    from repro.core.orchestrator import Orchestrator
    from repro.store.recovery import RecoveryReport


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
    """Tails one shard's WAL; promotes itself when the lease goes stale.

    Args:
        shard_id: The shard being shadowed.
        store_root: The cluster's durability root (the standby resolves
            the same ``shard-<id>/`` namespace the leader journals to).
        rebuild: Factory returning a *fresh* ``(orchestrator, service)``
            wired to the shard's surviving southbound and a store
            reopened over the :class:`~repro.store.journal.JournalTail`
            it is handed (the standby's own) — the "new process"
            promotion boots.  Supplied by
            :meth:`~repro.cluster.shard.ControlPlaneCluster.standby_for`.
        lease_timeout_s: ``ClusterConfig.lease_timeout_s``, the staleness read as leader death.
        leader: A promoted shard's serving leader to start from (else cold).
    """

    def __init__(
        self,
        shard_id: int,
        store_root: str,
        rebuild: Callable[[JournalTail], Tuple["Orchestrator", "SliceService"]],
        lease_timeout_s: float,
        leader: Optional["Orchestrator"] = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.directory = shard_directory(store_root, self.shard_id)
        self._snapshots = SnapshotStore(self.directory)
        self._rebuild = rebuild
        self.lease = Lease(
            os.path.join(self.directory, Lease.FILENAME),
            owner=f"shard-{self.shard_id}-standby",
            timeout_s=lease_timeout_s,
        )
        #: LSN folded through; -1 before anything, so that even a
        #: snapshot at LSN 0 (a checkpoint before any record) is ahead.
        self.state, self.applied_lsn = ReplayState(), -1
        self._tail = JournalTail(os.path.join(self.directory, "journal.jsonl"))
        #: slice id → (request dict, decoded request) of each live and
        #: in-flight image, so that a promotion decodes only the lag.  A
        #: fold replaces a request dict and never writes into one: an
        #: entry stands while its dict is the one the image holds.
        self.requests: Dict[str, Tuple[Dict[str, Any], SliceRequest]] = {}
        if leader is not None:
            self.state = ReplayState.from_dict(leader.durable.fold.to_dict())
            self.applied_lsn, self._tail = leader.store.last_lsn, leader.store.journal.index()
            for slice_id, image in self.state.live.items():
                if (runtime := leader.fleet.runtimes.get(slice_id)) is not None:
                    clone = object.__new__(SliceRequest)  # copy.copy costs what a decode does
                    clone.__dict__ = runtime.network_slice.request.__dict__.copy()
                    self.requests[slice_id] = (image["request"], clone)
        self._decode_ahead([*self.state.live, *self.state.in_flight])
        self.polls = 0
        self.promoted: Optional[PromotionReport] = None

    # ------------------------------------------------------------------
    # Tailing
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Fold everything the leader journaled past our position;
        returns the number of records applied.  After a leader
        checkpoint compacted the journal, the standby jumps to the
        snapshot (its pre-compaction fold reached at least that LSN
        anyway — LSNs are monotonic across compactions)."""
        applied, named = 0, set()
        # Snapshot LSNs are in the file names: parse one only when ahead.
        ahead = any(lsn > self.applied_lsn for lsn in self._snapshots.list_lsns())
        loaded = self._snapshots.load_latest() if ahead else None
        if loaded is not None and loaded[1] > self.applied_lsn:
            snapshot, lsn = loaded
            self.state = ReplayState.from_dict(snapshot)
            named.update(self.state.live, self.state.in_flight)
            applied += 1
            self.applied_lsn = lsn
        for record in self._tail.records(self.applied_lsn):
            self.state.apply(record.record_type, record.time, record.data)
            named.add(record.data.get("slice_id"))
            self.applied_lsn = record.lsn
            applied += 1
        self._decode_ahead(named)
        if len(self.requests) > len(self.state.live) + len(self.state.in_flight):
            self._decode_ahead(list(self.requests))  # a jump or a rebase dropped them unnamed
        self.polls += 1
        return applied

    def _decode_ahead(self, slice_ids: Iterable[Optional[str]]) -> None:
        """Bring the decoded request of each slice in ``slice_ids`` up to
        its image: decode a dict the entry does not hold, drop a slice
        that is neither live nor in flight."""
        live, in_flight, requests = self.state.live, self.state.in_flight, self.requests
        for slice_id in slice_ids:
            image = live.get(slice_id) or in_flight.get(slice_id)
            if image is None:
                requests.pop(slice_id, None)
            elif (entry := requests.get(slice_id)) is None or entry[0] is not image["request"]:
                requests[slice_id] = (image["request"], request_from_dict(image["request"]))

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
        # The new leader's journal owns our index (it appends to it); it folds on from ours.
        orchestrator, service = self._rebuild(self._tail)
        orchestrator.attach_lease(self.lease)
        from repro.store.recovery import RecoveryManager

        report = RecoveryManager(orchestrator).restore(self.state, self.requests)
        self.state, self.applied_lsn, self._tail = ReplayState(), -1, JournalTail(self._tail.path)
        self.requests = {}  # the new leader's now
        recovery_s = _time.monotonic() - started
        self.promoted = PromotionReport(
            shard_id=self.shard_id,
            recovery_s=recovery_s,
            replay_lag_records=replay_lag,
            report=report,
            orchestrator=orchestrator,
            service=service,
            api=build_v1_api(service),
            lease=self.lease,
            replay_floor_lsn=orchestrator.store.snapshot_lsn,
            trace={
                "standby_polls": self.polls,
                "standby_applied_lsn": pre_promotion_lsn,
            },
        )
        return self.promoted


__all__ = ["PromotionReport", "StandbyError", "WarmStandby"]
