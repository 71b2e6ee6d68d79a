"""Durable control-plane store: journal + snapshots behind one facade.

:class:`ControlPlaneStore` is what the orchestrator (and the service
layer) actually talks to: ``append`` journals a state transition,
``batch`` makes a batch verb's appends one group commit,
``checkpoint`` writes a full-state snapshot and compacts the journal,
``load`` hands recovery the newest snapshot plus the journal tail past
it.  :class:`NullStore` is the disabled twin — same surface, no I/O —
so every call site stays unconditional and an orchestrator without a
``durability_dir`` behaves exactly as before this subsystem existed.

A store belongs to one shard's control plane and, like it, is entered
by one thread at a time — a straggler compensated after its window
returned (``driver.compensated``) is journaled on that thread too, at
the planner's next drain — so it takes no lock.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from repro.store.codec import ReplayState
from repro.store.journal import Journal, JournalRecord, JournalTail
from repro.store.snapshot import SnapshotStore, fsync_directory


class StoreError(RuntimeError):
    """Raised on store misuse (e.g. checkpointing a disabled store)."""


def shard_directory(root: str, shard_id: int) -> str:
    """The on-disk namespace of one shard under a durability root.

    The sharded control plane (:mod:`repro.cluster`) gives every shard
    its own journal + snapshot family so shard leaders never contend on
    a file, and a standby can tail exactly one shard's WAL.  The layout
    is part of the durable contract: a standby, a recovery run and the
    failover drill all resolve the same ``shard-<id>/`` path.
    """
    if shard_id < 0:
        raise StoreError(f"shard_id must be non-negative, got {shard_id}")
    return os.path.join(str(root), f"shard-{int(shard_id):03d}")


class NullStore:
    """The no-op store wired when durability is disabled.

    Every write is dropped, every read is empty; ``enabled`` is the
    single flag call sites may branch on (the admin API does, to 409 a
    checkpoint request against a memory-only control plane).
    """

    enabled = False
    directory: Optional[str] = None
    shard_id: Optional[int] = None

    @property
    def last_lsn(self) -> int:
        return 0

    @property
    def snapshot_lsn(self) -> int:
        return 0

    def append(self, record_type: str, time: float = 0.0, **data: Any) -> int:
        return 0

    def records(self, after_lsn: int = 0) -> List[JournalRecord]:
        return []

    def should_checkpoint(self) -> bool:
        return False

    def checkpoint(self, state: Dict[str, Any], live: Optional[Dict[str, str]] = None) -> int:
        raise StoreError("durability is disabled (no durability_dir configured)")

    def load(self) -> Tuple[Optional[Dict[str, Any]], List[JournalRecord]]:
        return None, []

    def status(self) -> Dict[str, Any]:
        return {"enabled": False}

    def sync(self) -> None:
        pass

    def batch(self) -> ContextManager[None]:
        return nullcontext()

    def close(self, sync: bool = True) -> None:
        pass

    def bind_obs(self, obs: Any) -> None:
        pass


class ControlPlaneStore:
    """Event-sourced durability for the slice control plane.

    Args:
        directory: Store root (created if missing); holds
            ``journal.jsonl`` and ``snapshot-<lsn>.json`` files.
        fsync_every: Journal group-commit size (see
            :class:`~repro.store.journal.Journal`).
        checkpoint_every: Auto-checkpoint threshold — once this many
            records accumulate past the latest snapshot the
            orchestrator's monitoring loop writes a new one.  ``0``
            disables auto-checkpointing (manual ``POST
            /v1/admin/checkpoint`` still works).
        shard_id: Optional shard namespace — the store then lives in
            ``<directory>/shard-<id>/`` (see :func:`shard_directory`),
            giving every shard of a :mod:`repro.cluster` control plane
            its own journal + snapshot family under one root.
        journal_tail: A promoting standby's index of the journal (see
            :class:`~repro.store.journal.Journal`).
    """

    enabled = True

    def __init__(
        self,
        directory: str,
        fsync_every: int = 16,
        checkpoint_every: int = 512,
        shard_id: Optional[int] = None,
        journal_tail: Optional[JournalTail] = None,
    ) -> None:
        self.shard_id = shard_id if shard_id is None else int(shard_id)
        if self.shard_id is not None:
            directory = shard_directory(directory, self.shard_id)
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self.journal = Journal(
            os.path.join(self.directory, "journal.jsonl"), fsync_every, journal_tail
        )
        self.snapshots = SnapshotStore(self.directory)
        self._snapshot_lsn = self.snapshots.latest_lsn()
        # The snapshot LSN is durable state too: if a crash landed in
        # the window where compaction left the journal empty, the
        # journal alone would restart numbering at 1 — below the
        # snapshot — reusing LSNs consumers already hold.
        self.journal.ensure_lsn_at_least(self._snapshot_lsn)
        self.obs: Optional[Any] = None

    def bind_obs(self, obs: Any) -> None:
        """Attach a control-plane observability sink: journal append /
        fsync / batch-size histograms, checkpoint timing.  A
        disabled (no-op) sink unbinds — the write path stays pristine."""
        live = obs if (obs is not None and getattr(obs, "enabled", False)) else None
        self.obs = live
        self.journal.obs = live

    # ------------------------------------------------------------------
    # Journal passthrough
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """Durable position: LSN of the newest journaled record."""
        return self.journal.last_lsn

    @property
    def snapshot_lsn(self) -> int:
        """LSN the newest snapshot covers (0 = no snapshot)."""
        return self._snapshot_lsn

    @property
    def records_since_checkpoint(self) -> int:
        """How much churn a recovery would have to replay right now."""
        return max(0, self.journal.last_lsn - self._snapshot_lsn)

    def append(self, record_type: str, time: float = 0.0, **data: Any) -> int:
        """Journal one state transition; returns its LSN (0 if the
        store was closed — the crash semantics)."""
        return self.journal.append(record_type, time=time, **data)

    def records(self, after_lsn: int = 0) -> List[JournalRecord]:
        """Journal records past ``after_lsn`` (post-compaction view)."""
        return self.journal.records(after_lsn)

    def sync(self) -> None:
        """Force-fsync the journal."""
        self.journal.sync()

    def batch(self) -> ContextManager[None]:
        """One group commit (:meth:`~repro.store.journal.Journal.batch`)."""
        return self.journal.batch()

    def close(self, sync: bool = True) -> None:
        """Clean shutdown, or a simulated crash with ``sync=False`` (no
        fsync): further appends are dropped."""
        self.journal.close(sync)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def should_checkpoint(self) -> bool:
        """Whether enough churn accumulated for an auto-checkpoint."""
        return (
            self.checkpoint_every > 0
            and self.records_since_checkpoint >= self.checkpoint_every
        )

    def checkpoint(self, state: Dict[str, Any], live: Optional[Dict[str, str]] = None) -> int:
        """Write a full-state snapshot at the current journal position
        and compact the journal up to it (``live``: pre-encoded, see
        :func:`~repro.store.snapshot.encode_snapshot`).  Returns the
        snapshot LSN."""
        obs = self.obs
        if obs is not None:
            with obs.timed("store.checkpoint"):
                return self._checkpoint(state, live)
        return self._checkpoint(state, live)

    def _checkpoint(self, state: Dict[str, Any], live: Optional[Dict[str, str]]) -> int:
        self.journal.sync()
        lsn = self.journal.last_lsn
        self.snapshots.write(state, lsn, live)
        # The snapshot's name must be on disk before compaction drops
        # the records it covers: fsync the directory between renames.
        fsync_directory(self.directory)
        self.journal.compact(lsn)
        self._snapshot_lsn = lsn
        # Audit record (lands *after* the snapshot, so replay past the
        # snapshot sees it and ignores it).
        self.append("checkpoint.written", time=float(state.get("time", 0.0)), lsn=lsn)
        return lsn

    # ------------------------------------------------------------------
    # Recovery read path
    # ------------------------------------------------------------------
    def load(self) -> Tuple[Optional[Dict[str, Any]], List[JournalRecord]]:
        """The newest snapshot (or None) + the journal tail past it."""
        loaded = self.snapshots.load_latest()
        if loaded is None:
            return None, self.journal.records()
        state, lsn = loaded
        return state, self.journal.records(after_lsn=lsn)

    def replay(self) -> ReplayState:
        """Fold snapshot + journal tail into the recovered state image."""
        snapshot, tail = self.load()
        return ReplayState.restore(snapshot, tail)

    # ------------------------------------------------------------------
    # Durable event cursor (GET /v1/events?after_lsn=)
    # ------------------------------------------------------------------
    def events_after(
        self, after_lsn: int = 0, limit: Optional[int] = None
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Northbound events journaled past ``after_lsn``, as
        ``(lsn, event_dict)`` pairs, oldest first: the durable cursor's
        fallback, read only when the leader's in-memory event log no
        longer covers the cursor (an evicted event, or a record an
        earlier process journaled) — see ``SliceService.events_since``.

        A feed entry is any record carrying an ``event``: the transition
        that raised it, or an ``event.emitted`` (an event no transition
        raises — or, in the previous journal format, any event).

        Replay reaches back to the latest checkpoint (compaction drops
        older records); ``snapshot_lsn`` is the replay floor a consumer
        can detect a gap against.

        Cost: a cursor at (or past) the journal head returns without
        touching the disk; one behind it decodes the records past the
        cursor and nothing before them — the journal keeps each
        record's byte offset — so a polling consumer pays for what was
        appended since its last poll, whatever the journal holds.
        """
        if after_lsn >= self.journal.last_lsn:
            return []
        out: List[Tuple[int, Dict[str, Any]]] = []
        for record in self.journal.records(after_lsn):
            event = record.data.get("event")
            if not isinstance(event, dict):
                continue
            out.append((record.lsn, event))
            if limit is not None and len(out) >= limit:
                break
        return out

    # ------------------------------------------------------------------
    # Observability (GET /v1/admin/state)
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        return {
            "enabled": True,
            "directory": self.directory,
            "shard_id": self.shard_id,
            "last_lsn": self.journal.last_lsn,
            "snapshot_lsn": self._snapshot_lsn,
            "records_since_checkpoint": self.records_since_checkpoint,
            "checkpoint_every": self.checkpoint_every,
            "journal_bytes": self.journal.size_bytes(),
            "closed": self.journal.closed,
        }


def open_store(
    directory: Optional[str],
    fsync_every: int = 16,
    checkpoint_every: int = 512,
    shard_id: Optional[int] = None,
) -> "ControlPlaneStore | NullStore":
    """The store for ``directory`` — or the :class:`NullStore` when
    durability is not configured."""
    if not directory:
        return NullStore()
    return ControlPlaneStore(
        directory,
        fsync_every=fsync_every,
        checkpoint_every=checkpoint_every,
        shard_id=shard_id,
    )


__all__ = [
    "ControlPlaneStore",
    "NullStore",
    "StoreError",
    "open_store",
    "shard_directory",
]
