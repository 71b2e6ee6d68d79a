"""Snapshot (checkpoint) files for the control-plane store.

A snapshot is a full state checkpoint — the
:class:`~repro.store.codec.ReplayState` image at a known LSN — written
atomically (:func:`repro.store.files.replace`) so a crash
mid-checkpoint can never leave a half-written snapshot as the latest
one.  Recovery loads the newest *parseable* snapshot and replays only
the journal records past its LSN; the journal is compacted up to that
LSN afterwards, which is what keeps recovery time bounded by
churn-since-checkpoint instead of lifetime history (benchmark D12
measures the gap).

Layout: ``snapshot-<lsn, zero-padded>.json`` inside the store
directory; older snapshots are pruned after a successful write (the
newest is kept as the only one needed, plus its predecessor as a
paranoia fallback against a corrupt latest).

Bytes: :func:`encode_snapshot` alone writes them, always those of
``json.dumps({"format": FORMAT_VERSION, "lsn": lsn, "state": state},
sort_keys=True, default=json_default)``: the object declares the
format it is in (:data:`~repro.store.codec.FORMAT_VERSION`).  One that
declares none is an older format and still loads; one that declares a
newer format than this code's is refused (:class:`SnapshotError`).  A
checkpoint hands it the ``live`` section as per-slice fragments, of
which the leader re-encodes only those of the slices a folded record
changed since the last one
(:meth:`~repro.store.image.DurableImage.checkpoint`).
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.store import files
from repro.store.codec import FORMAT_VERSION, UNDECLARED_FORMAT, prebuilt_encoder

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d+)\.json$")
#: A snapshot's head, before its state: the declared format, if any, and the LSN.
_HEAD_RE = re.compile(rb'^\{(?:"format": (\d+), )?"lsn": (\d+), "state": \{')

#: ``json.dumps(..., sort_keys=True, default=json_default)``, built once.
_encode = prebuilt_encoder(", ", ": ")


def encode_member(key: str, value: Any) -> str:
    """``"key": value``, as ``json.dumps`` writes an object's member."""
    return f"{_encode(key)}: {_encode(value)}"


def encode_snapshot(
    lsn: int, state: Dict[str, Any], live: Optional[Dict[str, str]] = None
) -> bytes:
    """The snapshot of ``state`` at ``lsn``, byte for byte ``json.dumps``
    of ``{"format": FORMAT_VERSION, "lsn": lsn, "state": state}`` as
    above.  ``live``, when given, is the ``live`` section as
    :func:`encode_member` fragments by slice id."""
    if live is None:
        return _encode({"format": FORMAT_VERSION, "lsn": lsn, "state": state}).encode("utf-8")
    members = [
        f'"live": {{{", ".join(live[key] for key in sorted(live))}}}'
        if name == "live"
        else encode_member(name, value)
        for name, value in sorted({**state, "live": None}.items())
    ]
    head = f'{{"format": {FORMAT_VERSION}, "lsn": {int(lsn)}, "state": {{'
    return f'{head}{", ".join(members)}}}}}'.encode("utf-8")


class SnapshotError(RuntimeError):
    """Raised on snapshot-store misuse, and on a newer format."""


def _refuse_newer(version: int, path: str) -> None:
    if version > FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot format {version} is newer than this reader's {FORMAT_VERSION}"
        )


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

    def write(
        self, state: Dict[str, Any], lsn: int, live: Optional[Dict[str, str]] = None
    ) -> str:
        """Checkpoint ``state`` (``live``: see :func:`encode_snapshot`) as
        of journal position ``lsn``, atomically (durable once the caller
        fsyncs the directory); prune all but one predecessor.  Returns
        the snapshot path."""
        if lsn < 0:
            raise SnapshotError(f"lsn must be >= 0, got {lsn}")
        path = self._path_for(lsn)
        data = encode_snapshot(lsn, state, live)
        files.replace(path, path + ".tmp", data, site="snapshot.write")
        for stale in self.list_lsns()[:-2]:  # keep latest + one fallback
            try:
                os.remove(self._path_for(stale))
            except OSError:  # pragma: no cover - best effort
                pass
        return path

    def latest_lsn(self) -> int:
        """LSN of the newest snapshot whose sorted-key head and closing
        ``}}`` are intact (0 if none), read without decoding the body;
        :class:`SnapshotError` if that head declares a newer format."""
        for lsn in reversed(self.list_lsns()):
            path = self._path_for(lsn)
            try:
                with open(path, "rb") as handle:
                    head = _HEAD_RE.match(handle.read(64))
                    handle.seek(-2, os.SEEK_END)
                    intact = head is not None and int(head[2]) == lsn
                    if intact and handle.read() == b"}}":
                        _refuse_newer(int(head[1] or UNDECLARED_FORMAT), path)
                        return lsn
            except OSError:
                continue
        return 0

    def load_latest(self) -> Optional[Tuple[Dict[str, Any], int]]:
        """The newest parseable snapshot as ``(state, lsn)``.

        A corrupt latest snapshot (crash-truncated before the atomic
        rename discipline existed, disk damage) falls back to its
        predecessor; None when no usable snapshot exists.  One in a newer
        format raises :class:`SnapshotError`: falling back past it would
        miss the records compaction dropped behind it.
        """
        for lsn in reversed(self.list_lsns()):
            path = self._path_for(lsn)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                state, loaded_lsn = dict(payload["state"]), int(payload["lsn"])
            except (ValueError, KeyError, OSError):
                continue
            _refuse_newer(int(payload.get("format", UNDECLARED_FORMAT)), path)
            return state, loaded_lsn
        return None


__all__ = ["SnapshotError", "SnapshotStore", "encode_member", "encode_snapshot"]
