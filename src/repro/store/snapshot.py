"""Snapshot (checkpoint) files for the control-plane store.

A snapshot is a full state checkpoint — the
:class:`~repro.store.codec.ReplayState` image at a known LSN — written
atomically (temp file + rename) so a crash mid-checkpoint can never
leave a half-written snapshot as the latest one.  Recovery loads the
newest *parseable* snapshot and replays only the journal records past
its LSN; the journal is compacted up to that LSN afterwards, which is
what keeps recovery time bounded by churn-since-checkpoint instead of
lifetime history (benchmark D12 measures the gap).

Layout: ``snapshot-<lsn, zero-padded>.json`` inside the store
directory; older snapshots are pruned after a successful write (the
newest is kept as the only one needed, plus its predecessor as a
paranoia fallback against a corrupt latest).
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.store.codec import json_default

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d+)\.json$")


class SnapshotError(RuntimeError):
    """Raised on snapshot-store misuse."""


class SnapshotStore:
    """Atomic full-state checkpoints keyed by journal LSN."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path_for(self, lsn: int) -> str:
        return os.path.join(self.directory, f"snapshot-{lsn:012d}.json")

    def list_lsns(self) -> List[int]:
        """LSNs of every snapshot on disk, ascending."""
        out = []
        for name in os.listdir(self.directory):
            match = _SNAPSHOT_RE.match(name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def write(self, state: Dict[str, Any], lsn: int) -> str:
        """Checkpoint ``state`` as of journal position ``lsn``.

        Atomic: written to a temp file, fsynced, then renamed into
        place (the rename is durable once the caller fsyncs the
        directory, :func:`fsync_directory`).  Older snapshots beyond one
        predecessor are pruned.  Returns the snapshot path.
        """
        if lsn < 0:
            raise SnapshotError(f"lsn must be >= 0, got {lsn}")
        path = self._path_for(lsn)
        tmp_path = path + ".tmp"
        payload = {"lsn": lsn, "state": state}
        # dumps, not dump: one call into the C encoder instead of the
        # pure-Python iterencode dump always takes — same bytes.
        data = json.dumps(payload, sort_keys=True, default=json_default).encode("utf-8")
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        for stale in self.list_lsns()[:-2]:  # keep latest + one fallback
            try:
                os.remove(self._path_for(stale))
            except OSError:  # pragma: no cover - best effort
                pass
        return path

    def latest_lsn(self) -> int:
        """LSN of the newest snapshot whose sorted-key head and closing
        ``}}`` are intact (0 if none), read without decoding the body."""
        for lsn in reversed(self.list_lsns()):
            head = f'{{"lsn": {lsn}, "state": {{'.encode()
            try:
                with open(self._path_for(lsn), "rb") as handle:
                    intact = handle.read(len(head)) == head
                    handle.seek(-2, os.SEEK_END)
                    if intact and handle.read() == b"}}":
                        return lsn
            except OSError:
                continue
        return 0

    def load_latest(self) -> Optional[Tuple[Dict[str, Any], int]]:
        """The newest parseable snapshot as ``(state, lsn)``.

        A corrupt latest snapshot (crash-truncated before the atomic
        rename discipline existed, disk damage) falls back to its
        predecessor; None when no usable snapshot exists.
        """
        for lsn in reversed(self.list_lsns()):
            try:
                with open(self._path_for(lsn), "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                return dict(payload["state"]), int(payload["lsn"])
            except (ValueError, KeyError, OSError):
                continue
        return None


def fsync_directory(directory: str) -> None:
    """Make the renames into ``directory`` durable: a rename is a
    directory entry, on disk only once the directory itself is fsynced."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


__all__ = ["SnapshotError", "SnapshotStore", "fsync_directory"]
