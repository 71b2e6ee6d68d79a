"""Append-only write-ahead journal (JSONL, fsync-batched, monotonic LSNs).

The journal is the durability primitive of the control-plane store:
every externally meaningful state transition of the orchestrator —
admissions, slice lifecycle, calendar bookings, quota changes,
per-driver reservation commits/rollbacks — is appended here *before*
the transition is acknowledged northbound.  On restart,
:class:`~repro.store.recovery.RecoveryManager` folds the journal (on
top of the latest snapshot) back into control-plane state.

Format: a declaration, then one JSON object per record line::

    {"format":3}
    {"data":{...},"lsn":17,"t":120.0,"type":"slice.installed"}

The first line declares the file's format version
(:data:`~repro.store.codec.FORMAT_VERSION`).  A file without it is in
an older format, which still reads; the first append to such a file
rewrites it behind this code's declaration (atomically, as compaction
does), so a file never holds records newer than it declares.  A file
declaring a newer format than this code's is refused
(:class:`JournalError`).

Durability discipline:

- every append is **flushed** to the OS immediately (a process crash
  after :meth:`append` returns loses nothing), and
- the file is **fsynced** every ``fsync_every`` records (bounding what
  an OS/power failure can lose without paying an fsync per record —
  the classic group-commit trade; ``fsync_every=1`` gives full
  synchronous durability, ``0`` disables fsync entirely), except
- inside a :meth:`Journal.batch` (a broker window, a recovery's queued
  installs): **one** group commit, fsynced on exit, before the caller
  tells anyone of the batch's decisions.

``close(sync=False)`` is a killed process: appends stop, and what was
only flushed stays as unsynced as a dead process leaves it.

LSNs (log sequence numbers) are monotonically increasing, never
reused, and survive restarts: opening an existing journal resumes
numbering after its last intact record.  They double as the durable
consumer cursor of ``GET /v1/events?after_lsn=``.

Crash tolerance on the *read* path: a torn final line (the process
died mid-write) is ignored — it was never acknowledged, so dropping it
is correct.  A corrupt record in the *middle* of the journal is real
damage and raises :class:`JournalCorrupt`.

A closed journal silently drops appends instead of raising: the chaos
harness simulates a crash by closing the store while southbound
operations are still completing, exactly like a dead process whose
writes never reach the disk.

A journal belongs to one shard's control plane and, like it, is
entered by one thread at a time, so it takes no lock.
"""

from __future__ import annotations

import copy
import json
import os
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from repro.store.codec import FORMAT_VERSION, encode_json
from repro.store.snapshot import fsync_directory


class JournalError(RuntimeError):
    """Raised on journal misuse."""


class JournalCorrupt(JournalError):
    """A record *before* the tail failed to parse — real damage, not a
    torn final write."""


#: The line that declares a journal's format: its first.
FORMAT_LINE = encode_json({"format": FORMAT_VERSION}) + "\n"
_DECLARATION = b'{"format":'


@dataclass
class JournalRecord:
    """One durable state transition.

    Attributes:
        lsn: Monotonic log sequence number (the durable cursor).
        time: Simulation time the transition happened.
        record_type: Dotted record name, e.g. ``"slice.installed"``.
        data: JSON-safe payload (see :mod:`repro.store.codec`).
    """

    lsn: int
    time: float
    record_type: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        return encode_json(
            {"lsn": self.lsn, "t": self.time, "type": self.record_type, "data": self.data}
        )

    @classmethod
    def from_line(cls, line: str) -> "JournalRecord":
        raw = json.loads(line)
        return cls(
            lsn=int(raw["lsn"]),
            time=float(raw["t"]),
            record_type=str(raw["type"]),
            data=dict(raw.get("data") or {}),
        )


@dataclass
class _ScanResult:
    """Outcome of parsing a journal file tolerantly."""

    records: List[JournalRecord] = field(default_factory=list)
    #: Byte offset each record's line starts at, parallel to ``records``.
    starts: List[int] = field(default_factory=list)
    #: Byte offset past the last intact, newline-terminated line — the
    #: truncation point that repairs a torn tail.
    clean_end: int = 0
    #: The final line is an intact record but lacks its newline (the
    #: process died between write and terminator); repair appends one.
    tail_unterminated: bool = False
    #: The format the file's first line declares, when the scan read it.
    declared: Optional[int] = None


def _declared_format(path: str, line: bytes) -> int:
    """The version a format line declares; a newer one than this code's
    is refused."""
    version = int(json.loads(line)["format"])
    if version > FORMAT_VERSION:
        raise JournalError(
            f"{path}: journal format {version} is newer than this reader's {FORMAT_VERSION}"
        )
    return version


def _scan(path: str, offset: int = 0) -> _ScanResult:
    """Parse every intact record at or past byte ``offset`` (a line start).

    Tolerates a torn tail (partial/corrupt last line — it was never
    acknowledged, so dropping it is correct); raises
    :class:`JournalCorrupt` on damage anywhere else.
    """
    result = _ScanResult(clean_end=offset)
    at_head = offset == 0
    if not os.path.exists(path):
        return result
    with open(path, "rb") as handle:
        handle.seek(offset)
        blob = handle.read()
    lines = blob.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()  # file ends with a newline — no dangling fragment
        ends_terminated = True
    else:
        ends_terminated = False
    for index, raw in enumerate(lines):
        is_last = index == len(lines) - 1
        terminated = (not is_last) or ends_terminated
        line_end = offset + len(raw) + (1 if terminated else 0)
        stripped = raw.strip()
        if not stripped:
            if terminated:
                result.clean_end = line_end
            offset = line_end
            continue
        try:
            if at_head and index == 0 and stripped.startswith(_DECLARATION):
                declared = _declared_format(path, stripped)
                if not terminated:
                    break  # torn with the record written beside it
                result.declared, result.clean_end = declared, line_end
                offset = line_end
                continue
            record = JournalRecord.from_line(stripped.decode("utf-8"))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            if is_last and not terminated:
                break  # torn tail — never acknowledged, drop it
            # A newline-terminated line completed its write — the
            # record was acknowledged, so damage here is real
            # corruption, never a benign torn tail.
            raise JournalCorrupt(
                f"{path}: corrupt record at byte {offset}: {exc}"
            ) from exc
        result.records.append(record)
        result.starts.append(offset)
        if terminated:
            result.clean_end = line_end
        else:
            result.tail_unterminated = True
        offset = line_end
    return result


class JournalTail:
    """Incremental tolerant reader of one journal file.

    Keeps the LSN and line-start byte offset of every newline-terminated
    record read so far, and the offset past the last: a read decodes
    only what was appended since, or what lies past a cursor.  A file
    that was replaced (as compaction does) or shrank is indexed afresh.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.lsns: List[int] = []
        self.starts: List[int] = []
        self.offset = 0
        #: The format the file declares (None: an older one, or empty).
        self.declared: Optional[int] = None
        self._inode: Optional[int] = None
        #: The records the last :meth:`records` call that pulled any decoded.
        self._recent: List[JournalRecord] = []
        #: Times a pull indexed the file afresh: the first, and each after
        #: it was replaced (as compaction does) or shrank.
        self.reindexed = 0

    def pull(self) -> _ScanResult:
        """Decode and index what was appended since the last pull.  An
        intact last record still lacking its newline is reported, but
        left for the next pull to index."""
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            return _ScanResult()
        if stat.st_ino != self._inode or stat.st_size < self.offset:
            self._inode, self.offset = stat.st_ino, 0
            self.lsns, self.starts = [], []
            self.reindexed += 1
        scan = _scan(self.path, self.offset)
        if not self.offset:
            self.declared = scan.declared
        count = len(scan.records) - scan.tail_unterminated
        self.lsns.extend(record.lsn for record in scan.records[:count])
        self.starts.extend(scan.starts[:count])
        self.offset = scan.clean_end
        return scan

    def appended(self, lsn: int, size: int) -> None:
        """Index a record this tail's owner wrote at the indexed end."""
        self.lsns.append(lsn)
        self.starts.append(self.offset)
        self.offset += size

    def rebased(self, dropped: int, base: int) -> None:
        """This tail's owner replaced the file by a format line and its
        own bytes from ``base`` on: keep the index of all but the
        ``dropped`` first."""
        shift = base - len(FORMAT_LINE)
        del self.lsns[:dropped]
        self.starts = [start - shift for start in self.starts[dropped:]]
        self.offset -= shift
        self.declared = FORMAT_VERSION
        self._inode = os.stat(self.path).st_ino

    def records(self, after_lsn: int = 0) -> List[JournalRecord]:
        """Every intact record with ``lsn > after_lsn``, oldest first,
        as the file says: what this call's pull decoded when the cursor
        is at that point (or the last that decoded any, if the index has
        not moved since), else decoded from the cursor's byte offset."""
        scan, recent = self.pull(), self._recent
        first = bisect_right(self.lsns, after_lsn)
        pulled = len(scan.records) - scan.tail_unterminated  # the index's newest entries
        records = scan.records
        if pulled:
            self._recent = records[:pulled]
        if first < len(self.lsns) - pulled:
            if not pulled and recent and recent[0].lsn <= self.lsns[first] \
                    and recent[-1].lsn == self.lsns[-1]:
                records = recent + records
            else:
                records = _scan(self.path, self.starts[first]).records
        return [record for record in records if record.lsn > after_lsn]


class Journal:
    """Append-only JSONL journal with monotonic LSNs.

    Args:
        path: Journal file; created on first append, reopened (with
            torn-tail repair) when it already exists.
        fsync_every: Group-commit granularity — fsync once every N
            appends.  ``1`` fsyncs every record (full synchronous
            durability); ``0`` is an **explicit opt-out sentinel**: no
            append ever fsyncs, so an OS or power failure can lose every
            record since the last explicit :meth:`sync` (a process crash
            still loses nothing — appends always flush to the OS).
            :meth:`sync` and :meth:`close` fsync regardless of the
            sentinel, a :meth:`batch` exit does not.  Choose ``0`` only
            for throwaway stores (benchmarks, simulations replayed from
            scratch); negative values raise :class:`JournalError`.
        tail: A :class:`JournalTail` of ``path`` that already indexed a
            prefix of it (a promoting standby's): the reopen decodes only
            the bytes past it, and owns it from here.

    Raises:
        JournalError: If ``fsync_every`` is negative.
    """

    def __init__(
        self, path: str, fsync_every: int = 16, tail: Optional[JournalTail] = None
    ) -> None:
        if fsync_every < 0:
            raise JournalError(f"fsync_every must be >= 0, got {fsync_every}")
        self.path = str(path)
        self.fsync_every = int(fsync_every)
        #: Control-plane observability sink (bound by
        #: :meth:`~repro.store.store.ControlPlaneStore.bind_obs`);
        #: ``None`` keeps the write path exactly as before — the
        #: timed branch is never entered.
        self.obs: Optional[Any] = None
        self._closed = False
        self._unsynced = 0
        self._batch_depth = 0  # open batch() contexts
        self._tail = tail or JournalTail(self.path)
        # Resume numbering after the last intact record, and *repair* a
        # torn tail before appending anything: new records must never
        # land behind half-written garbage (that would turn a benign
        # torn tail into mid-journal corruption).
        scan = self._tail.pull()
        newest = scan.records[-1].lsn if scan.records else 0
        self._last_lsn = max(newest, self._tail.lsns[-1] if self._tail.lsns else 0)
        if os.path.exists(self.path):
            size = os.path.getsize(self.path)
            if scan.tail_unterminated:
                with open(self.path, "ab") as handle:
                    handle.write(b"\n")
            elif size > scan.clean_end:
                with open(self.path, "rb+") as handle:
                    handle.truncate(scan.clean_end)
        self._handle = open(self.path, "a", encoding="utf-8")
        # Index the repaired tail; from here the journal indexes what it
        # appends, and compacting or reading at the head decodes nothing.
        self._tail.pull()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """LSN of the newest appended record (0 when empty)."""
        return self._last_lsn

    @property
    def closed(self) -> bool:
        return self._closed

    def ensure_lsn_at_least(self, lsn: int) -> None:
        """Never issue LSNs at or below ``lsn``.

        The store calls this with the latest snapshot's LSN on open: a
        crash in the tiny window after compaction emptied the journal
        (before the audit marker landed) must not restart numbering at
        1 — reused LSNs would freeze durable consumer cursors and make
        the stale snapshot outrank every newer one.
        """
        self._last_lsn = max(self._last_lsn, int(lsn))

    def append(self, record_type: str, time: float = 0.0, **data: Any) -> int:
        """Durably append one record; returns its LSN.

        A closed journal drops the record and returns 0 — the "process
        is dead, the write never landed" semantics the crash-recovery
        tests rely on.
        """
        obs = self.obs
        if obs is not None and obs.enabled:
            # Instrumented twin of the plain path below: append time,
            # plus fsync timing and group-commit batch size inside _write.
            started = perf_counter()
            lsn = self._write(record_type, time, data, obs=obs)
            obs.observe("journal.append", (perf_counter() - started) * 1000.0)
            return lsn
        return self._write(record_type, time, data)

    def _write(
        self,
        record_type: str,
        time: float,
        data: Dict[str, Any],
        obs: Optional[Any] = None,
    ) -> int:
        if self._closed:
            return 0
        if self._tail.declared != FORMAT_VERSION:
            self._declare()
        lsn = self._last_lsn + 1
        record = JournalRecord(lsn=lsn, time=float(time), record_type=record_type, data=data)
        line = record.to_line() + "\n"
        self._handle.write(line)
        self._handle.flush()
        self._tail.appended(lsn, len(line))  # to_line() is ASCII: one byte a character
        self._unsynced += 1
        if self.fsync_every and self._unsynced >= self.fsync_every and not self._batch_depth:
            self._fsync(obs)
        self._last_lsn = lsn
        return lsn

    def _declare(self) -> None:
        """Declare this code's format ahead of its first record: an empty
        file starts with the format line, one in an older format is
        rewritten behind it."""
        tail = self._tail
        if tail.offset:
            self._rewrite(0)
        else:
            self._handle.write(FORMAT_LINE)
            tail.offset, tail.declared = len(FORMAT_LINE), FORMAT_VERSION

    @contextmanager
    def batch(self) -> Iterator[None]:
        """One group commit around a batch of appends (nestable): the
        ``fsync_every`` threshold waits, and the outermost exit fsyncs
        what is unsynced, also when the body raised.  Appends still flush
        one by one, so a process crash mid-batch loses nothing."""
        self._batch_depth += 1
        try:
            yield
        finally:
            obs = self.obs
            self._batch_depth -= 1
            if not (self._batch_depth or self._closed) and self._unsynced and self.fsync_every:
                self._fsync(obs if obs is not None and obs.enabled else None)

    def _fsync(self, obs: Optional[Any] = None) -> None:
        """Group-commit fsync."""
        if obs is not None:
            batch = self._unsynced
            started = perf_counter()
            os.fsync(self._handle.fileno())
            obs.observe("journal.fsync", (perf_counter() - started) * 1000.0)
            obs.observe("journal.batch_records", float(batch))
        else:
            os.fsync(self._handle.fileno())
        self._unsynced = 0

    def sync(self) -> None:
        """Force an fsync of everything appended so far (if unsynced)."""
        obs = self.obs
        if self._closed or not self._unsynced:
            return
        self._handle.flush()
        self._fsync(obs if obs is not None and obs.enabled else None)

    def close(self, sync: bool = True) -> None:
        """Stop accepting appends (idempotent), syncing what is unsynced
        unless ``sync=False`` (a killed process: the flushed bytes stay
        readable, as the page cache keeps them, but not power-safe)."""
        if self._closed:
            return
        self._handle.flush()
        if sync and self._unsynced:
            os.fsync(self._handle.fileno())
        self._handle.close()
        self._closed = True

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def records(self, after_lsn: int = 0) -> List[JournalRecord]:
        """Every intact record with ``lsn > after_lsn``, oldest first."""
        if not self._closed:
            self._handle.flush()
        return self._tail.records(after_lsn)

    def index(self) -> JournalTail:
        """A copy of this journal's index, at its last append, to read on apart."""
        index = copy.copy(self._tail)
        index.lsns, index.starts, index._recent = index.lsns[:], index.starts[:], []
        return index

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, upto_lsn: int) -> int:
        """Drop records with ``lsn <= upto_lsn`` (they are covered by a
        snapshot).  Atomic: the survivors are rewritten to a temp file
        which is renamed over the journal, so a crash mid-compaction
        leaves either the old or the new journal, never a mix.

        Returns the number of records dropped.
        """
        if self._closed:
            raise JournalError("journal is closed")
        self._handle.flush()
        self._tail.pull()
        dropped = bisect_right(self._tail.lsns, upto_lsn)
        self._rewrite(dropped)
        return dropped

    def _rewrite(self, dropped: int) -> None:
        """Replace the file by the format line and every record but the
        ``dropped`` first.  Atomic: a temp file renamed over the journal."""
        self._handle.flush()
        if self._unsynced:  # a checkpoint has just synced; a direct caller may not have
            os.fsync(self._handle.fileno())
        tail = self._tail
        base = tail.starts[dropped] if dropped < len(tail.starts) else tail.offset
        with open(self.path, "rb") as current:
            current.seek(base)
            survivors = current.read(tail.offset - base)
        tmp_path = self.path + ".compact"
        with open(tmp_path, "wb") as tmp:
            tmp.write(FORMAT_LINE.encode("ascii"))
            tmp.write(survivors)
            tmp.flush()
            os.fsync(tmp.fileno())
        self._handle.close()
        os.replace(tmp_path, self.path)
        fsync_directory(os.path.dirname(self.path) or ".")  # later appends land here
        self._handle = open(self.path, "a", encoding="utf-8")
        self._unsynced = 0
        tail.rebased(dropped, base)

    def size_bytes(self) -> int:
        """Current on-disk size of the journal file."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0


__all__ = ["Journal", "JournalCorrupt", "JournalError", "JournalRecord", "JournalTail"]
