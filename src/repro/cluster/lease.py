"""Leader lease file + heartbeat protocol for one shard.

One tiny JSON file per shard (``lease.json`` in the shard's store
directory) is the shared ground truth of who leads the shard:

- The **leader** acquires the lease (bumping its *epoch*) and
  heartbeats it every monitoring epoch.  Every heartbeat re-reads the
  file first: if another worker's (owner, epoch) is in it, the refresh
  fails and the caller must fence itself — the orchestrator closes its
  durable store, which has exactly crash semantics (all further
  journal writes are dropped).
- The **standby** watches the file's heartbeat timestamp: older than
  ``timeout_s`` (or missing entirely) means the leader is dead, and
  promotion may begin.  Promotion is itself an acquire — the epoch
  bump is what deposes a leader that was merely paused, not dead
  (the classic false-suspicion case), the moment it next heartbeats.

Writes are atomic (tmp + rename, same discipline as the snapshot
store), so a reader never sees a torn lease, and an acquire fsyncs the
directory so its epoch bump survives a power loss.  Timestamps are wall
clock (``time.time()``): the lease must be comparable *across*
processes, where the simulators' virtual clocks don't exist.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.store.snapshot import fsync_directory


class LeaseError(RuntimeError):
    """Raised on lease misuse (e.g. heartbeating before acquiring)."""


@dataclass
class LeaseState:
    """What the lease file currently says."""

    owner: str
    epoch: int
    heartbeat_at: float  # wall clock (time.time())

    def age_s(self, now: Optional[float] = None) -> float:
        """Seconds since the last heartbeat."""
        return (time.time() if now is None else now) - self.heartbeat_at


class Lease:
    """One worker's handle on a shard's leader lease.

    Args:
        path: The lease file (conventionally ``lease.json`` inside the
            shard's store directory).
        owner: This worker's identity, unique per process/worker (e.g.
            ``"shard-0-leader"`` / ``"shard-0-standby"``).
        timeout_s: Staleness threshold — a heartbeat older than this
            reads as leader death.
    """

    FILENAME = "lease.json"

    def __init__(self, path: str, owner: str, timeout_s: float = 5.0) -> None:
        if timeout_s <= 0:
            raise LeaseError(f"timeout must be positive, got {timeout_s}")
        self.path = str(path)
        self.owner = str(owner)
        self.timeout_s = float(timeout_s)
        self.epoch = 0  # the epoch *we* hold; 0 = not acquired

    # ------------------------------------------------------------------
    # Shared read side
    # ------------------------------------------------------------------
    def read(self) -> Optional[LeaseState]:
        """The current lease file contents (None when absent/torn)."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            return LeaseState(
                owner=str(payload["owner"]),
                epoch=int(payload["epoch"]),
                heartbeat_at=float(payload["heartbeat_at"]),
            )
        except (OSError, ValueError, KeyError):
            return None

    def is_stale(self) -> bool:
        """Leader-death check (the standby's watch condition): the
        lease is missing, unreadable, or its heartbeat is older than
        ``timeout_s``."""
        state = self.read()
        return state is None or state.age_s() > self.timeout_s

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def _write(self, epoch: int) -> None:
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        tmp = f"{self.path}.tmp.{self.owner}"
        with open(tmp, "w", encoding="utf-8") as handle:
            # dumps, not dump: dump's encoder leaves a reference cycle per call.
            handle.write(json.dumps(
                {"owner": self.owner, "epoch": epoch, "heartbeat_at": time.time()}
            ))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def acquire(self, force: bool = False) -> bool:
        """Take the lease.  Succeeds when the lease is free, stale,
        already ours, or ``force`` is set (a drill's hard takeover).
        Bumps the epoch past whatever the file held — the bump is what
        deposes a paused-but-alive previous owner on its next
        heartbeat."""
        state = self.read()
        if (
            state is not None
            and state.owner != self.owner
            and state.age_s() <= self.timeout_s
            and not force
        ):
            return False  # a live leader holds it
        self.epoch = (state.epoch if state else 0) + 1
        self._write(self.epoch)
        # The bump fences the old owner: a power loss must not undo it.
        fsync_directory(os.path.dirname(self.path) or ".")
        return True

    def heartbeat(self) -> bool:
        """Refresh our claim.  Returns False — **without** rewriting
        the file — when the lease is no longer ours (another worker
        acquired a higher epoch): the caller must fence itself.

        Raises:
            LeaseError: When called before :meth:`acquire`.
        """
        if self.epoch == 0:
            raise LeaseError("heartbeat before acquire")
        state = self.read()
        if state is not None and (
            state.owner != self.owner or state.epoch != self.epoch
        ):
            return False
        self._write(self.epoch)
        return True


__all__ = ["Lease", "LeaseError", "LeaseState"]
