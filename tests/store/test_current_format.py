"""Format 2 stays readable, and format 3 writes the same run in fewer bytes.

``fixtures/current-format/`` is the shard store (snapshot + journal)
that the revision before format 3 wrote by running
:mod:`tests.store.window_scenario`, with that revision's durable feed
of it beside it.  Its journal declares no format, writes every request
image in full wherever a record names the request, and every
``slice.installed`` trail with all its reservation ids.  Today's code
folds it to the digest that revision folded it to, serves the feed
that revision served, recovers it losing nothing — and writes the same
run as the same records, in fewer bytes, that fold to the same digest
and serve the same feed.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil

import pytest

from repro.core import slices
from repro.store import ControlPlaneStore, RecoveryManager
from repro.store.codec import FORMAT_VERSION, trail_of
from repro.store.journal import FORMAT_LINE, Journal, JournalError
from repro.store.snapshot import SnapshotError, SnapshotStore
from tests.store import window_scenario

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "current-format")
JOURNAL = os.path.join(FIXTURE, f"shard-{window_scenario.SHARD:03d}", "journal.jsonl")
#: ``ReplayState.digest()`` of the fixture, as its own revision folded it.
FORMAT_2_DIGEST = "276d54b943e7729096a3a4d58eb4aec932774de19aa937cbe94b5c5657a55fea"
#: The records that name a request, and which of them wrote its image in format 3.
NAMING = ("broker.enqueued", "install.started", "slice.installed")


def open_copy(directory: str) -> ControlPlaneStore:
    """The fixture, copied first: a recovery journals into its store."""
    shutil.copytree(FIXTURE, directory)
    return ControlPlaneStore(directory, shard_id=window_scenario.SHARD)


def feed() -> list:
    with open(os.path.join(FIXTURE, "events_after.json")) as handle:
        return [(lsn, event) for lsn, event in json.load(handle)]


@pytest.fixture
def format_2_store(tmp_path):
    store = open_copy(str(tmp_path / "format-2"))
    yield store
    store.close()


@pytest.fixture
def todays_store(tmp_path, monkeypatch):
    """The same run by today's writer, from a fresh process's request
    counter (the digest holds the ordinal high-water mark)."""
    monkeypatch.setattr(slices, "_request_counter", itertools.count(1))
    directory = str(tmp_path / "today")
    window_scenario.run(directory)
    store = ControlPlaneStore(directory, shard_id=window_scenario.SHARD)
    yield store
    store.close()


def test_the_fixture_is_in_format_2(format_2_store):
    with open(JOURNAL) as handle:
        assert handle.readline() != FORMAT_LINE
    records = format_2_store.records()
    naming = [r for r in records if r.record_type in NAMING]
    assert len(naming) == 6 + 4 + 3
    assert all("request" in r.data for r in naming)
    trails = [r.data["trail"] for r in records if r.record_type == "slice.installed"]
    assert trails and all(len(entry) == 3 for trail in trails for entry in trail)
    with open(format_2_store.snapshots._path_for(format_2_store.snapshot_lsn), "rb") as handle:
        assert handle.read().startswith(b'{"lsn": ')


def test_it_folds_to_the_pinned_digest(format_2_store):
    assert format_2_store.replay().digest() == FORMAT_2_DIGEST


def test_it_serves_the_feed_its_revision_served(format_2_store):
    assert format_2_store.events_after(0) == feed()


def test_it_recovers_with_nothing_lost_and_declares_the_format_it_appends(
    format_2_store, tmp_path
):
    testbed, _ = window_scenario.run(str(tmp_path / "southbound"))
    with open(format_2_store.journal.path, "rb") as handle:
        format_2_bytes = handle.read()
    restarted = window_scenario.control_plane(testbed, store=format_2_store)
    report = RecoveryManager(restarted).restore()
    assert (report.slices_lost, report.slices_adopted, report.broker_requeued) == (0, 4, 1)
    live = {s.slice_id for s in restarted.live_slices()}
    assert live == {"slice-sync-long", "slice-a", "slice-b", "slice-c", "slice-open"}
    for driver in testbed.registry.drivers():
        assert {r.slice_id for r in driver.list_reservations()} == live, driver.domain
    # The first append rewrote the file behind the declaration: every
    # format-2 byte is kept, after it.
    with open(format_2_store.journal.path, "rb") as handle:
        upgraded = handle.read()
    head = FORMAT_LINE.encode()
    assert upgraded.startswith(head + format_2_bytes)
    assert restarted.store.replay().digest() == restarted.durable.fold.digest()


def test_todays_writer_folds_the_run_alike_in_fewer_bytes(format_2_store, todays_store):
    assert todays_store.replay().digest() == FORMAT_2_DIGEST
    assert todays_store.events_after(0) == feed()
    ours, theirs = todays_store.records(), format_2_store.records()
    assert [(r.lsn, r.record_type) for r in ours] == [(r.lsn, r.record_type) for r in theirs]
    for mine, old in zip(ours, theirs):
        assert trail_of(mine.data) == trail_of(old.data)
    # One image per request, at its first durable sight: the window
    # requests' enqueues and the online creates' install.started (they
    # are before the checkpoint here, so in the snapshot).
    imaged = [r.record_type for r in ours if "request" in r.data]
    assert imaged == ["broker.enqueued"] * 6
    size = {s: os.path.getsize(s.journal.path) for s in (todays_store, format_2_store)}
    assert size[todays_store] < size[format_2_store] * 0.8, size
    with open(todays_store.journal.path) as handle:
        assert handle.readline() == FORMAT_LINE


def test_a_newer_format_is_refused(tmp_path):
    newer = FORMAT_VERSION + 1
    path = tmp_path / "journal.jsonl"
    path.write_text(f'{{"format":{newer}}}\n')
    with pytest.raises(JournalError, match=f"format {newer} is newer"):
        Journal(str(path))
    snapshots = SnapshotStore(str(tmp_path / "snapshots"))
    written = snapshots.write({"time": 0.0}, lsn=3)
    with open(written) as handle:
        body = handle.read()
    with open(written, "w") as handle:
        handle.write(body.replace(f'"format": {FORMAT_VERSION}', f'"format": {newer}'))
    with pytest.raises(SnapshotError, match=f"format {newer} is newer"):
        snapshots.latest_lsn()
    with pytest.raises(SnapshotError, match=f"format {newer} is newer"):
        snapshots.load_latest()
