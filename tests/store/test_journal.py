"""Unit tests of the write-ahead journal: LSN discipline, durability,
crash tolerance of the read path, and compaction."""

from __future__ import annotations

import json
import os

import pytest

from repro.store.codec import json_default
from repro.store.journal import Journal, JournalCorrupt, JournalError, JournalTail, _scan


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "journal.jsonl")


class TestAppend:
    def test_lsns_monotonic_from_one(self, path):
        journal = Journal(path)
        assert journal.last_lsn == 0
        assert [journal.append(f"t.{i}") for i in range(5)] == [1, 2, 3, 4, 5]
        assert journal.last_lsn == 5

    def test_records_round_trip_payload(self, path):
        journal = Journal(path)
        journal.append("slice.installed", time=12.5, slice_id="s1", n=3)
        (record,) = journal.records()
        assert record.lsn == 1
        assert record.time == 12.5
        assert record.record_type == "slice.installed"
        assert record.data == {"slice_id": "s1", "n": 3}

    def test_numpy_payloads_are_coerced(self, path):
        import numpy as np

        journal = Journal(path)
        data = {"value": np.float64(1.5), "count": np.int64(3), "ids": {"b", "a"}}
        journal.append("t", **data)
        (record,) = journal.records()
        assert record.data == {"value": 1.5, "count": 3, "ids": ["a", "b"]}
        # The line is the canonical dump, byte for byte.
        with open(path) as handle:
            assert handle.read() == json.dumps(
                {"lsn": 1, "t": 0.0, "type": "t", "data": data},
                sort_keys=True,
                separators=(",", ":"),
                default=json_default,
            ) + "\n"

    def test_append_visible_on_disk_without_close(self, path):
        """Every append is flushed — a crash (no close) loses nothing."""
        journal = Journal(path)
        journal.append("a")
        journal.append("b")
        # A second reader (the "restarted process") sees both records
        # while the first handle is still open.
        assert [r.record_type for r in Journal(path).records()] == ["a", "b"]

    def test_lsn_numbering_resumes_across_restart(self, path):
        journal = Journal(path)
        journal.append("a")
        journal.append("b")
        journal.close()
        reopened = Journal(path)
        assert reopened.last_lsn == 2
        assert reopened.append("c") == 3

    def test_closed_journal_drops_appends(self, path):
        """Crash semantics: a dead process's writes never land."""
        journal = Journal(path)
        journal.append("before")
        journal.close()
        assert journal.append("after") == 0
        assert [r.record_type for r in Journal(path).records()] == ["before"]

    def test_fsync_every_validation(self, path):
        with pytest.raises(JournalError):
            Journal(path, fsync_every=-1)


class TestFsyncSentinel:
    """``fsync_every=0`` is an explicit opt-out: appends never fsync,
    but explicit ``sync()``/``close()`` still do, and every record
    remains readable (appends always flush to the OS)."""

    @pytest.fixture
    def fsync_calls(self, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return calls

    def test_zero_never_fsyncs_on_append(self, path, fsync_calls):
        journal = Journal(path, fsync_every=0)
        for i in range(100):
            journal.append(f"t.{i}")
        assert fsync_calls == []
        # The opt-out trades durability, not readability: a second
        # reader still sees every flushed record.
        assert len(Journal(path).records()) == 100

    def test_explicit_sync_still_fsyncs(self, path, fsync_calls):
        journal = Journal(path, fsync_every=0)
        journal.append("a")
        assert fsync_calls == []
        journal.sync()
        assert len(fsync_calls) == 1

    def test_close_still_fsyncs(self, path, fsync_calls):
        journal = Journal(path, fsync_every=0)
        journal.append("a")
        journal.close()
        assert len(fsync_calls) == 1

    def test_one_fsyncs_every_append(self, path, fsync_calls):
        journal = Journal(path, fsync_every=1)
        journal.append("a")
        journal.append("b")
        assert len(fsync_calls) == 2


class TestCrashTolerance:
    def test_torn_tail_ignored(self, path):
        journal = Journal(path)
        journal.append("a")
        journal.append("b")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"lsn": 3, "t": 0.0, "type": "c", "da')  # torn write
        records = Journal(path).records()
        assert [r.record_type for r in records] == ["a", "b"]
        # And numbering never reuses the torn record's lsn space wrongly:
        assert Journal(path).append("c") == 3

    def test_truncated_tail_ignored(self, path):
        journal = Journal(path)
        journal.append("a")
        journal.close()
        with open(path, "rb+") as handle:
            handle.seek(-10, os.SEEK_END)
            handle.truncate()
        assert Journal(path).records() == []

    def test_corrupt_middle_raises(self, path):
        journal = Journal(path)
        journal.append("a")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("NOT JSON AT ALL\n")
            handle.write(
                json.dumps({"lsn": 2, "t": 0.0, "type": "b", "data": {}}) + "\n"
            )
        with pytest.raises(JournalCorrupt):
            Journal(path)

    def test_empty_and_missing_files(self, path):
        assert Journal(path).records() == []  # created empty
        other = str(os.path.dirname(path)) + "/never-written.jsonl"
        journal = Journal(other)
        assert journal.last_lsn == 0


class TestCompaction:
    def test_compact_drops_covered_prefix(self, path):
        journal = Journal(path)
        for i in range(10):
            journal.append(f"t.{i}")
        dropped = journal.compact(upto_lsn=7)
        assert dropped == 7
        assert [r.lsn for r in journal.records()] == [8, 9, 10]
        # Appends continue past the old lsn space.
        assert journal.append("next") == 11

    def test_records_after_cursor(self, path):
        journal = Journal(path)
        for i in range(5):
            journal.append(f"t.{i}")
        assert [r.lsn for r in journal.records(after_lsn=3)] == [4, 5]


class TestLsnContinuity:
    def test_terminated_corrupt_tail_raises(self, path):
        """A newline-terminated final line completed its write (the
        record was acknowledged) — damage there is corruption, not a
        benign torn tail."""
        journal = Journal(path)
        journal.append("a")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"lsn": 2, "t": 0.0, "type": "b", "broken\n')
        with pytest.raises(JournalCorrupt):
            Journal(path)

    def test_store_never_reissues_lsns_after_compaction_window_crash(
        self, tmp_path
    ):
        """Crash after compaction emptied the journal but before the
        audit marker landed: reopening must resume LSNs past the
        snapshot, or consumer cursors freeze and the stale snapshot
        outranks every newer one."""
        from repro.store.store import ControlPlaneStore

        directory = str(tmp_path / "store")
        store = ControlPlaneStore(directory)
        for i in range(5):
            store.append(f"t.{i}")
        store.checkpoint({"time": 0.0})  # snapshot at lsn 5
        # Simulate the crash window: wipe the journal (as if the marker
        # append never landed) and reopen.
        store.close()
        open(directory + "/journal.jsonl", "w").close()
        reopened = ControlPlaneStore(directory)
        assert reopened.append("after-restart") > 5
        # A new checkpoint must outrank the pre-crash snapshot.
        lsn = reopened.checkpoint({"time": 1.0, "marker": "new"})
        assert lsn > 5
        state, loaded_lsn = reopened.snapshots.load_latest()
        assert loaded_lsn == lsn
        assert state.get("marker") == "new"


def line(lsn: int, kind: str = "x", **data) -> str:
    return json.dumps({"lsn": lsn, "t": 0.0, "type": kind, "data": data})


def from_scratch(path, after_lsn: int = 0):
    """What a reader holding no state makes of the file."""
    return [r for r in _scan(path).records if r.lsn > after_lsn]


class TestTailReader:
    """``Journal.records`` and ``JournalTail`` decode only what was
    appended since the previous read — and must say exactly what a
    from-scratch scan of the file says."""

    def test_appends_between_reads(self, path):
        journal = Journal(path)
        assert journal.records() == []
        for round_ in range(4):
            for i in range(3):
                journal.append(f"t.{round_}.{i}", n=i)
            for after in (0, 2, journal.last_lsn - 1, journal.last_lsn, 99):
                assert journal.records(after) == from_scratch(path, after)
            assert len(journal) == journal.last_lsn
        assert [r.lsn for r in journal] == list(range(1, 13))

    def test_steady_state_poll_decodes_only_new_lines(self, path, monkeypatch):
        from repro.store.journal import JournalRecord

        journal = Journal(path)
        for i in range(200):
            journal.append("old", n=i)
        cursor = journal.records()[-1].lsn
        decoded = []
        real = JournalRecord.from_line.__func__
        monkeypatch.setattr(
            JournalRecord, "from_line",
            classmethod(lambda cls, text: decoded.append(text) or real(cls, text)),
        )
        journal.append("new", n=1)
        journal.append("new", n=2)
        assert [r.lsn for r in journal.records(cursor)] == [cursor + 1, cursor + 2]
        assert len(decoded) == 2
        # A cursor further back costs what lies past it, not the file.
        assert len(journal.records(cursor - 3)) == 5
        assert len(decoded) == 2 + 5

    def test_records_are_decoded_from_disk_not_aliased(self, path):
        journal = Journal(path)
        payload = {"nested": {"k": [1, 2]}}
        journal.append("a", **payload)
        payload["nested"]["k"].append(3)  # caller mutates after the append
        (first,) = journal.records()
        assert first.data == {"nested": {"k": [1, 2]}}
        first.data["nested"]["k"].clear()  # reader mutates what it was given
        (again,) = journal.records()
        assert again.data == {"nested": {"k": [1, 2]}}

    def test_concurrent_reader_sees_torn_then_completed_tail(self, path):
        writer = Journal(path)
        writer.append("a")
        reader = JournalTail(path)
        assert [r.lsn for r in reader.pull().records] == [1]
        whole = line(2, "b")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(whole[:15])  # the writer is mid-write
        torn = reader.pull()
        assert torn.records == [] and not torn.tail_unterminated
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(whole[15:])  # intact, newline still missing
        dangling = reader.pull()
        assert [r.lsn for r in dangling.records] == [2] and dangling.tail_unterminated
        # Offered again until it is terminated, then exactly once more.
        assert [r.lsn for r in reader.pull().records] == [2]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n" + line(3, "c") + "\n")
        done = reader.pull()
        assert [r.lsn for r in done.records] == [2, 3] and not done.tail_unterminated
        assert reader.pull().records == []

    def test_journal_serves_an_unterminated_last_record_once(self, path):
        journal = Journal(path)
        journal.append("a")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line(2, "b"))  # another writer, newline pending
        assert [r.lsn for r in journal.records()] == [1, 2]
        assert [r.lsn for r in journal.records()] == [1, 2]
        assert len(journal) == 2
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")
        assert [r.lsn for r in journal.records()] == [1, 2]
        assert journal.records(1) == from_scratch(path, 1)

    def test_compaction_between_reads(self, path):
        journal = Journal(path)
        follower = JournalTail(path)
        for i in range(10):
            journal.append(f"t.{i}")
        assert len(journal.records()) == 10
        assert len(follower.pull().records) == 10
        assert journal.compact(upto_lsn=7) == 7
        assert [r.lsn for r in journal.records()] == [8, 9, 10]
        assert journal.append("next") == 11
        assert [r.lsn for r in journal.records(9)] == [10, 11]
        assert journal.records() == from_scratch(path)
        # The follower notices the replaced file and starts over.
        assert [r.lsn for r in follower.records(9)] == [10, 11]
        assert follower.lsns == [8, 9, 10, 11]
        assert journal.compact(upto_lsn=11) == 4
        assert journal.records() == [] and len(journal) == 0
        assert follower.records() == []
        journal.append("again")
        assert [r.lsn for r in follower.records(11)] == [12]
        assert follower.records() == from_scratch(path)

    def test_compaction_keeps_the_surviving_bytes(self, path):
        journal = Journal(path)
        for i in range(6):
            journal.append(f"t.{i}", n=i)
        with open(path, "rb") as handle:
            before = handle.read().split(b"\n")
        journal.compact(upto_lsn=4)
        with open(path, "rb") as handle:
            assert handle.read().split(b"\n") == before[4:]

    def test_follower_restarts_on_a_shrunken_file(self, path):
        journal = Journal(path)
        for i in range(5):
            journal.append(f"t.{i}")
        follower = JournalTail(path)
        assert len(follower.pull().records) == 5
        journal.close()
        with open(path, "w", encoding="utf-8") as handle:  # same inode, shorter
            handle.write(line(9, "rewritten") + "\n")
        assert [r.lsn for r in follower.pull().records] == [9]

    def test_reopen_resumes_and_reads_everything(self, path):
        journal = Journal(path)
        for i in range(4):
            journal.append(f"t.{i}")
        journal.close()
        reopened = Journal(path)
        assert reopened.append("more") == 5
        assert [r.lsn for r in reopened.records(3)] == [4, 5]
        assert reopened.records() == from_scratch(path)

    def test_closed_journal_reads_what_the_disk_says(self, path):
        journal = Journal(path)
        journal.append("a")
        journal.append("b")
        assert len(journal.records()) == 2
        journal.close()
        assert journal.append("dropped") == 0
        # Whoever took over appends and compacts behind the dead one.
        successor = Journal(path)
        successor.append("c")
        successor.compact(upto_lsn=2)
        assert [r.record_type for r in journal.records()] == ["c"]
        assert journal.records(3) == [] and len(journal) == 1

    def test_corrupt_middle_line_raises_on_every_read(self, path):
        journal = Journal(path)
        journal.append("a")
        assert len(journal.records()) == 1
        follower = JournalTail(path)
        follower.pull()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("NOT JSON AT ALL\n" + line(2, "b") + "\n")
        for _ in range(2):
            with pytest.raises(JournalCorrupt):
                journal.records(1)
            with pytest.raises(JournalCorrupt):
                follower.pull()
        with pytest.raises(JournalCorrupt):
            len(journal)

    def test_missing_file_reads_empty(self, tmp_path):
        follower = JournalTail(str(tmp_path / "not-yet.jsonl"))
        assert follower.pull().records == []
        journal = Journal(follower.path)
        journal.append("a")
        assert [r.lsn for r in follower.pull().records] == [1]


def index_from_scratch(path):
    """``(lsns, line starts, clean end)`` as a stateless scan finds them."""
    scan = _scan(path)
    return [r.lsn for r in scan.records], scan.starts, scan.clean_end


class TestSelfKeptIndex:
    """The journal indexes what it appends itself — a read at the head
    or a compaction decodes nothing — and that index must be exactly
    what a from-scratch scan of the file finds."""

    @staticmethod
    def count_decodes(monkeypatch):
        from repro.store.journal import JournalRecord

        decoded = []
        real = JournalRecord.from_line.__func__
        monkeypatch.setattr(
            JournalRecord, "from_line",
            classmethod(lambda cls, text: decoded.append(text) or real(cls, text)),
        )
        return decoded

    def test_checkpoint_decodes_nothing_when_nobody_lags(self, tmp_path, monkeypatch):
        from repro.store.store import ControlPlaneStore

        store = ControlPlaneStore(str(tmp_path / "store"))
        for i in range(300):  # nobody polls: the burst workload's shape
            store.append("driver.trail", slice_id=f"slice-{i:06d}", ops=["p", "c"])
        decoded = self.count_decodes(monkeypatch)
        store.checkpoint({"time": 1.0})
        assert store.events_after(store.last_lsn) == []
        assert decoded == []
        assert [r.record_type for r in store.records()] == ["checkpoint.written"]
        assert len(decoded) == 1  # a read costs what it returns
        store.checkpoint({"time": 2.0})
        assert len(decoded) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_index_matches_a_from_scratch_scan(self, path, seed):
        import random

        rng = random.Random(seed)
        journal = Journal(path, fsync_every=0)
        for _ in range(60):
            verb = rng.choice(("append", "append", "append", "compact", "reopen", "read"))
            if verb == "append":
                journal.append("t", n=rng.randrange(10**6), text="é\n\"x" * rng.randrange(3))
            elif verb == "compact":  # survivors, none, or nothing to drop
                journal.compact(rng.randrange(journal.last_lsn + 2))
            elif verb == "reopen":
                journal.close()
                if rng.random() < 0.5:
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write(
                            rng.choice(('{"lsn": 7, "t', line(journal.last_lsn + 1, "u")))
                        )  # a torn write, or an intact one missing its newline
                journal = Journal(path, fsync_every=0)
            else:
                after = rng.randrange(journal.last_lsn + 2)
                assert journal.records(after) == from_scratch(path, after)
            tail = journal._tail
            assert (tail.lsns, tail.starts, tail.offset) == index_from_scratch(path)
            assert os.path.getsize(path) == tail.offset
