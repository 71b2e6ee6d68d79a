"""The previous journal format stays readable.

``fixtures/parent-format/`` is a shard store (snapshot + journal) that
the revision before one-record-per-transition wrote by running
:mod:`tests.store.window_scenario`, with that revision's durable feed
of it beside it.  Its journal holds every event as a standalone
``event.emitted``, each job's trail as a ``driver.trail`` and each
window decision as a ``broker.decided``.  Today's code folds it to the
digest that revision folded it to, serves the feed that revision
served, recovers it losing nothing — and writes the same run as fewer
records that fold to the same state.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter

import pytest

from repro.store import ControlPlaneStore, RecoveryManager
from tests.store import window_scenario

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "parent-format")
#: ``ReplayState.digest()`` of the fixture, as its own revision folded it.
PARENT_DIGEST = "276d54b943e7729096a3a4d58eb4aec932774de19aa937cbe94b5c5657a55fea"


def open_copy(directory: str) -> ControlPlaneStore:
    """The fixture, copied first: a recovery journals into its store."""
    shutil.copytree(FIXTURE, directory)
    return ControlPlaneStore(directory, shard_id=window_scenario.SHARD)


@pytest.fixture
def parent_store(tmp_path):
    store = open_copy(str(tmp_path / "parent"))
    yield store
    store.close()


def test_the_fixture_is_in_the_previous_format(parent_store):
    kinds = Counter(record.record_type for record in parent_store.records())
    assert kinds["event.emitted"] == 11
    assert kinds["driver.trail"] == 4
    assert kinds["broker.decided"] == 5
    assert not [r for r in parent_store.records() if "trail" in r.data and "event" in r.data]


def test_it_folds_to_the_pinned_digest(parent_store):
    assert parent_store.replay().digest() == PARENT_DIGEST


def test_it_serves_the_feed_its_revision_served(parent_store):
    with open(os.path.join(FIXTURE, "events_after.json")) as handle:
        expected = [(lsn, event) for lsn, event in json.load(handle)]
    assert parent_store.events_after(0) == expected


def test_it_recovers_with_nothing_lost(parent_store, tmp_path):
    # The southbound as the previous revision left it: the same run,
    # driven by today's code (its journal goes elsewhere).
    testbed, _ = window_scenario.run(str(tmp_path / "today"))
    restarted = window_scenario.control_plane(testbed, store=parent_store)
    report = RecoveryManager(restarted).restore()
    assert (report.slices_lost, report.slices_adopted, report.broker_requeued) == (0, 4, 1)
    live = {s.slice_id for s in restarted.live_slices()}
    assert live == {"slice-sync-long", "slice-a", "slice-b", "slice-c", "slice-open"}
    for driver in testbed.registry.drivers():
        assert {r.slice_id for r in driver.list_reservations()} == live, driver.domain


def test_todays_journal_of_the_same_run_folds_alike_in_fewer_records(
    parent_store, tmp_path
):
    directory = str(tmp_path / "today")
    window_scenario.run(directory)
    store = ControlPlaneStore(directory, shard_id=window_scenario.SHARD)
    ours, theirs = store.replay().to_dict(), parent_store.replay().to_dict()
    # The request-ordinal high-water mark in a snapshot counts every
    # auto-numbered request this process made, before this test too.
    for image in (ours, theirs):
        image.pop("last_request_ordinal")
    assert ours == theirs
    assert [e for _, e in store.events_after(0)] == [
        e for _, e in parent_store.events_after(0)
    ]
    kinds = Counter(record.record_type for record in store.records())
    assert (len(store.records()), len(parent_store.records())) == (22, 36)
    assert not kinds["driver.trail"] and not kinds["broker.decided"]
    assert {
        r.data["event"]["type"] for r in store.records() if r.record_type == "event.emitted"
    } == {"driver.rollback"}
    store.close()
