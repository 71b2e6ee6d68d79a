"""Snapshot/checkpoint behavior of the control-plane store: atomic
writes, corrupt-latest fallback, journal compaction, auto-checkpoint
wiring and the durable event cursor."""

from __future__ import annotations

import hashlib
import io
import json
import os
import stat

import numpy as np
import pytest

from repro.store.codec import ReplayState, json_default
from repro.store.snapshot import SnapshotStore
from repro.store.store import ControlPlaneStore, NullStore, StoreError, open_store

from tests.conftest import make_request
from tests.store.conftest import make_orchestrator
from repro.traffic.patterns import ConstantProfile


class TestSnapshotStore:
    def test_write_then_load_round_trip(self, tmp_path):
        snapshots = SnapshotStore(str(tmp_path))
        snapshots.write({"time": 5.0, "live": {}}, lsn=42)
        state, lsn = snapshots.load_latest()
        assert lsn == 42
        assert state["time"] == 5.0

    def test_latest_wins_and_old_snapshots_pruned(self, tmp_path):
        snapshots = SnapshotStore(str(tmp_path))
        for lsn in (10, 20, 30):
            snapshots.write({"lsn_marker": lsn}, lsn=lsn)
        state, lsn = snapshots.load_latest()
        assert lsn == 30
        # Latest + one fallback are retained, older pruned.
        assert snapshots.list_lsns() == [20, 30]

    def test_corrupt_latest_falls_back_to_predecessor(self, tmp_path):
        snapshots = SnapshotStore(str(tmp_path))
        snapshots.write({"generation": 1}, lsn=10)
        path = snapshots.write({"generation": 2}, lsn=20)
        with open(path, "w") as handle:
            handle.write("{ torn checkpoi")
        state, lsn = snapshots.load_latest()
        assert (state["generation"], lsn) == (1, 10)

    def test_no_snapshot_returns_none(self, tmp_path):
        assert SnapshotStore(str(tmp_path)).load_latest() is None

    def test_file_is_byte_identical_to_json_dump(self, tmp_path):
        """The snapshot goes through ``json.dumps`` (the C encoder);
        the file must stay exactly what the streaming ``json.dump`` —
        the pure-Python encoder — wrote before."""
        state = {
            "time": 1234.5678901234567,
            "live": {
                f"slice-{i:06d}": {
                    "fraction": np.float64(0.1) * (i + 1) / 3.0,
                    "window": [0.1 + i, 1e-9, 1e22, float(i)],
                    "status": "active" if i % 2 else "installed",
                    "activated_at": None,
                    "users": np.int64(i),
                    "healthy": np.bool_(i % 3 == 0),
                    "reservations": {"ran": f"ran-res-{i:06d}", "épc": "ünïcode"},
                    "request": {"nested": {"deeper": [{"x": np.float32(0.3)}, [], {}]}},
                }
                for i in range(40)
            },
            "quotas": {},
            "samples": np.arange(5) / 7.0,
            "tenants": {"b", "a"},
            "last_event_seq": 2**53 + 1,
        }
        snapshots = SnapshotStore(str(tmp_path))
        path = snapshots.write(state, lsn=7)
        reference = io.StringIO()
        json.dump(
            {"lsn": 7, "state": state}, reference, sort_keys=True, default=json_default
        )
        with open(path, "rb") as handle:
            assert handle.read() == reference.getvalue().encode("utf-8")
        loaded, lsn = snapshots.load_latest()
        assert lsn == 7
        assert loaded == json.loads(reference.getvalue())["state"]
        assert loaded["live"]["slice-000003"]["window"] == [3.1, 1e-9, 1e22, 3.0]
        assert loaded["tenants"] == ["a", "b"]


class TestControlPlaneStore:
    def test_checkpoint_compacts_journal(self, tmp_path):
        store = ControlPlaneStore(str(tmp_path))
        for i in range(20):
            store.append(f"t.{i}", time=float(i))
        assert store.records_since_checkpoint == 20
        lsn = store.checkpoint({"time": 19.0})
        assert lsn == 20
        assert store.snapshot_lsn == 20
        # Only the post-checkpoint audit marker remains in the journal.
        assert [r.record_type for r in store.records()] == ["checkpoint.written"]
        snapshot, tail = store.load()
        assert snapshot["time"] == 19.0
        assert [r.record_type for r in tail] == ["checkpoint.written"]

    @pytest.mark.parametrize("torn", ["{ torn checkpoi", "cut"], ids=["garbage", "truncated"])
    def test_reopen_reads_the_snapshot_lsn_without_decoding_it(
        self, tmp_path, monkeypatch, torn
    ):
        store = ControlPlaneStore(str(tmp_path))
        store.append("t")
        store.checkpoint({"time": 0.0, "live": {"s": {"window": [1.0, 2.0]}}})
        for _ in range(4):
            store.append("t")
        latest_lsn = store.checkpoint({"time": 1.0, "live": {"s": {"window": [3.0, 4.0]}}})
        store.close()
        bodies = []  # per JSON decode: was it a snapshot body?
        for name in ("load", "loads"):

            def spy(*args, real=getattr(json, name), **kwargs):
                decoded = real(*args, **kwargs)
                bodies.append(isinstance(decoded, dict) and "state" in decoded)
                return decoded

            monkeypatch.setattr(json, name, spy)
        reopened = ControlPlaneStore(str(tmp_path))
        assert (reopened.snapshot_lsn, latest_lsn) == (6, 6)
        assert not any(bodies)
        assert reopened.snapshots.load_latest()[1] == 6 and any(bodies)  # the spy sees one
        reopened.close()
        # A torn latest (garbage, or a body cut short) is skipped for
        # its predecessor, as a full load would.
        path = reopened.snapshots._path_for(latest_lsn)
        with open(path, "rb") as handle:
            intact = handle.read()
        with open(path, "wb") as handle:
            handle.write(intact[: len(intact) - 3] if torn == "cut" else torn.encode())
        again = ControlPlaneStore(str(tmp_path))
        assert again.snapshot_lsn == 1 == again.snapshots.load_latest()[1]
        again.close()

    def test_snapshot_rename_is_made_durable_before_compaction(self, tmp_path, monkeypatch):
        """Power loss must never keep the compacted journal while losing
        the snapshot name that covers the records it dropped."""
        store = ControlPlaneStore(str(tmp_path))
        for _ in range(3):
            store.append("t")
        steps = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            real_replace(src, dst)
            steps.append(("rename", os.path.basename(dst)))

        def fsync(fd):
            real_fsync(fd)
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                steps.append(("fsync", "directory"))

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        lsn = store.checkpoint({"time": 0.0})
        # ... and the compacted journal's name before anything lands in it.
        assert steps == [
            ("rename", f"snapshot-{lsn:012d}.json"),
            ("fsync", "directory"),
            ("rename", "journal.jsonl"),
            ("fsync", "directory"),
        ]
        store.close()

    @staticmethod
    def count_fsyncs(monkeypatch) -> list:
        calls = []
        real_fsync = os.fsync

        def fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return calls

    def test_a_quiet_checkpoint_issues_five_fsyncs(self, tmp_path, monkeypatch):
        """Journal sync, snapshot file, directory, compacted file,
        directory: compaction skips the old handle ``sync`` just synced."""
        store = ControlPlaneStore(str(tmp_path))
        for _ in range(3):
            store.append("t")
        calls = self.count_fsyncs(monkeypatch)
        store.checkpoint({"time": 0.0})
        assert len(calls) == 5
        store.close()

    def test_an_append_between_sync_and_compaction_is_still_fsynced(
        self, tmp_path, monkeypatch
    ):
        store = ControlPlaneStore(str(tmp_path))
        store.append("t")
        real_write = store.snapshots.write

        def write_beside_a_straggler(state, lsn, live=None):
            # A compensation landing on a backend thread meanwhile.
            store.append("driver.compensated", slice_id="s")
            return real_write(state, lsn, live)

        store.snapshots.write = write_beside_a_straggler
        calls = self.count_fsyncs(monkeypatch)
        store.checkpoint({"time": 0.0})
        assert len(calls) == 6  # the old handle's, for the straggler
        assert [r.record_type for r in store.records()] == [
            "driver.compensated", "checkpoint.written",
        ]
        store.close()

    def test_snapshot_digest_hashes_the_bytes_on_disk(self, tmp_path):
        """Snapshot bytes are canonical (sorted keys): two stores that
        checkpoint the same state at the same LSN write byte-identical
        files, so the SHA-256 of a snapshot file names its state."""
        digests = []
        for name, live in (("one", {"b": 1, "a": 2}), ("two", {"a": 2, "b": 1})):
            store = ControlPlaneStore(str(tmp_path / name))
            store.append("t")
            lsn = store.checkpoint({"time": 2.0, "live": live})
            with open(store.snapshots._path_for(lsn), "rb") as handle:
                digests.append(hashlib.sha256(handle.read()).hexdigest())
            store.close()
        assert digests[0] == digests[1]

    def test_should_checkpoint_threshold(self, tmp_path):
        store = ControlPlaneStore(str(tmp_path), checkpoint_every=5)
        for i in range(4):
            store.append("t")
        assert not store.should_checkpoint()
        store.append("t")
        assert store.should_checkpoint()
        store.checkpoint({"time": 0.0})
        assert not store.should_checkpoint()

    def test_events_after_filters_and_limits(self, tmp_path):
        store = ControlPlaneStore(str(tmp_path))
        for seq in range(1, 6):
            store.append("event.emitted", time=0.0, event={"seq": seq, "type": "x"})
            store.append("slice.activated", time=0.0, slice_id=f"s{seq}")
        pairs = store.events_after(0)
        assert len(pairs) == 5
        assert all(event["type"] == "x" for _, event in pairs)
        limited = store.events_after(pairs[1][0], limit=2)
        assert [event["seq"] for _, event in limited] == [3, 4]

    def test_open_store_dispatch(self, tmp_path):
        assert isinstance(open_store(None), NullStore)
        assert isinstance(open_store(str(tmp_path / "d")), ControlPlaneStore)

    def test_null_store_is_inert(self):
        store = NullStore()
        assert store.append("anything") == 0
        assert store.records() == []
        assert store.load() == (None, [])
        assert not store.should_checkpoint()
        assert store.status() == {"enabled": False}
        with pytest.raises(StoreError):
            store.checkpoint({})


class TestOrchestratorCheckpoint:
    def test_manual_checkpoint_round_trips_live_state(
        self, durable_testbed, tmp_path
    ):
        orch = make_orchestrator(durable_testbed, directory=str(tmp_path / "store"))
        orch.start()
        decision = orch.submit(make_request(throughput_mbps=10.0), ConstantProfile(10.0))
        assert decision.admitted
        orch.sim.run_until(10.0)  # activate
        result = orch.durable.checkpoint()
        assert result["checkpoint_lsn"] > 0
        snapshot, tail = orch.store.load()
        state = ReplayState.restore(snapshot, tail)
        assert decision.slice_id in state.live
        assert state.live[decision.slice_id]["status"] == "active"

    def test_auto_checkpoint_from_monitoring_loop(self, durable_testbed, tmp_path):
        orch = make_orchestrator(
            durable_testbed,
            directory=str(tmp_path / "store"),
            checkpoint_every_records=5,
        )
        orch.start()
        for _ in range(3):
            assert orch.submit(
                make_request(throughput_mbps=5.0), ConstantProfile(5.0)
            ).admitted
        assert orch.store.should_checkpoint()
        orch.sim.run_until(61.0)  # one monitoring epoch
        assert orch.store.snapshot_lsn > 0
        assert not orch.store.should_checkpoint()

    def test_checkpoint_requires_durability(self, durable_testbed):
        orch = make_orchestrator(durable_testbed)  # NullStore
        with pytest.raises(StoreError, match="durability is disabled"):
            orch.durable.checkpoint()
