"""The durable-file seam (``repro.store.files``): what it writes, in
which order, and the ``site`` each durable write of the journal, the
snapshots and the lease names — the rows of ``phase_probe.py``'s fsync
census."""

from __future__ import annotations

import os
import stat

import pytest

from repro.cluster.lease import Lease
from repro.store import files
from repro.store.store import ControlPlaneStore


@pytest.fixture
def os_calls(monkeypatch) -> list:
    """``("fsync", "file" | "directory")`` and ``("replace", src, dst)``
    per call to ``os``, by base name, through stand-ins installed on it."""
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(("fsync", kind))
        return real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.basename(src), os.path.basename(dst)))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return calls


@pytest.fixture
def sites(monkeypatch) -> list:
    """The ``site`` of every seam fsync from here on."""
    seen = []
    real = files.fsync

    def fsync(target, site):
        seen.append(site)
        return real(target, site)

    monkeypatch.setattr(files, "fsync", fsync)
    return seen


def test_replace_fsyncs_the_temp_file_then_renames_it_over_the_target(tmp_path, os_calls):
    target = tmp_path / "data.json"
    target.write_bytes(b"old")
    files.replace(str(target), str(target) + ".tmp", b"new ", b"bytes", site="test")
    assert os_calls == [("fsync", "file"), ("replace", "data.json.tmp", "data.json")]
    assert target.read_bytes() == b"new bytes"
    assert os.listdir(tmp_path) == ["data.json"]


def test_fsync_takes_a_descriptor_or_an_open_file(tmp_path, os_calls):
    with open(tmp_path / "f", "w", encoding="utf-8") as handle:
        files.fsync(handle, "test")
        files.fsync(handle.fileno(), "test")
    files.fsync_directory(str(tmp_path), "test")
    assert os_calls == [("fsync", "file"), ("fsync", "file"), ("fsync", "directory")]


def test_a_checkpoint_names_each_of_its_fsyncs(tmp_path, sites):
    store = ControlPlaneStore(str(tmp_path))
    for _ in range(3):
        store.append("t")
    store.checkpoint({"time": 0.0})
    assert sites == [
        "journal.commit", "snapshot.write", "checkpoint.directory",
        "journal.rewrite", "journal.rewrite.directory",
    ]
    store.append("t")
    store.journal.compact(0)  # a direct caller with appends unsynced
    store.close()
    assert sites[5:] == [
        "journal.rewrite.pending", "journal.rewrite", "journal.rewrite.directory",
    ]


def test_a_close_names_its_fsync_and_a_kill_issues_none(tmp_path, sites):
    store = ControlPlaneStore(str(tmp_path / "clean"))
    store.append("t")
    store.close()
    killed = ControlPlaneStore(str(tmp_path / "killed"))
    killed.append("t")
    killed.close(sync=False)
    assert sites == ["journal.close"]


def test_the_lease_writes_through_its_owners_own_temp_file(tmp_path, sites, os_calls):
    path = str(tmp_path / Lease.FILENAME)
    leader, standby = Lease(path, "leader"), Lease(path, "standby")
    assert leader.acquire() and leader.heartbeat()
    assert standby.acquire(force=True)
    assert sites == [
        "lease.write", "lease.acquire.directory", "lease.write",
        "lease.write", "lease.acquire.directory",
    ]
    assert [call[1] for call in os_calls if call[0] == "replace"] == [
        "lease.json.tmp.leader", "lease.json.tmp.leader", "lease.json.tmp.standby",
    ]
    assert os.listdir(tmp_path) == [Lease.FILENAME]
    assert (standby.read().owner, standby.read().epoch) == ("standby", 2)
