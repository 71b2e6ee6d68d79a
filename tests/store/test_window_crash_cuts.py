"""Kill the control plane after every LSN of one broker window.

The window of :mod:`tests.store.window_scenario` — five
``broker.enqueued``, a loser, three installs and one install every
attempt of which unwinds — is cut after each of its records, in the
previous journal format (the committed fixture) and in today's; the
southbound finished what the window started.  At every cut recovery
must re-offer exactly the requests whose ``install.started`` or
``slice.rejected`` had not landed, and re-adopt exactly the slices
whose install had started and committed — nothing lost, nothing
leaked.  No ``broker.decided`` of the previous format decides a request
the records before it had not: it was redundant, and today's format
does without it.
"""

from __future__ import annotations

import os
import shutil
from typing import List

from repro.store import ControlPlaneStore, RecoveryManager
from repro.store.journal import JournalRecord
from tests.store import window_scenario
from tests.store.test_parent_format import FIXTURE

#: Slices the window's installs committed southbound.
COMMITTED = {"slice-a", "slice-b", "slice-c"}
#: Live before the window opened (in the snapshot).
SNAPSHOT_LIVE = {"slice-sync-long"}
SHARD_DIR = f"shard-{window_scenario.SHARD:03d}"


def request_of(record: JournalRecord) -> str:
    data = record.data
    return data["request"]["request_id"] if "request" in data else data["request_id"]


def journal_lines(store_root: str) -> List[str]:
    """The window's journal as written, up to the flush (the open
    request's enqueue after it is outside the window)."""
    with open(os.path.join(store_root, SHARD_DIR, "journal.jsonl")) as handle:
        lines = handle.read().splitlines(keepends=True)
    last = max(
        index
        for index, line in enumerate(lines)
        if JournalRecord.from_line(line).time <= window_scenario.CHECKPOINT_AT
        + window_scenario.WINDOW_S
    )
    return lines[: last + 1]


def cut_store(store_root: str, lines: List[str], directory: str) -> ControlPlaneStore:
    """``store_root``'s snapshot plus the first ``lines`` of its journal:
    what a kill right after the last of them leaves on disk."""
    shard = os.path.join(directory, SHARD_DIR)
    os.makedirs(shard)
    for name in os.listdir(os.path.join(store_root, SHARD_DIR)):
        if name.startswith("snapshot-"):
            shutil.copy(os.path.join(store_root, SHARD_DIR, name), shard)
    with open(os.path.join(shard, "journal.jsonl"), "w") as handle:
        handle.writelines(lines)
    return ControlPlaneStore(directory, shard_id=window_scenario.SHARD)


def check_every_cut(store_root: str, tmp_path) -> int:
    lines = journal_lines(store_root)
    for cut in range(1, len(lines) + 1):
        prefix = [JournalRecord.from_line(line) for line in lines[:cut]]
        enqueued, decided, started, settled = [], set(), set(), set()
        for record in prefix:
            kind = record.record_type
            if kind == "broker.enqueued":
                enqueued.append(request_of(record))
            elif kind in ("install.started", "slice.rejected"):
                decided.add(request_of(record))
            if kind == "install.started":
                started.add(record.data["slice_id"])
            elif kind in ("slice.installed", "slice.rejected"):
                settled.add(record.data["slice_id"])
        undecided = {request_id for request_id in enqueued if request_id not in decided}
        # The southbound as the window left it, journal cut short.
        testbed, _ = window_scenario.run(str(tmp_path / f"run-{cut}"), through="window")
        store = cut_store(store_root, lines[:cut], str(tmp_path / f"cut-{cut}"))
        assert set(store.replay().broker_pending) == undecided, cut
        restarted = window_scenario.control_plane(testbed, store=store)
        report = RecoveryManager(restarted).restore()

        adopted = {
            e.slice_id for e in restarted.events.since(0) if e.event_type == "slice.adopted"
        }
        assert adopted == SNAPSHOT_LIVE | (started & COMMITTED), cut
        assert report.broker_requeued == len(undecided), cut
        # An install that started and never committed anywhere: the
        # admission survives, re-queued (not re-offered).
        assert report.admissions_requeued == len(started - settled - COMMITTED), cut
        assert report.slices_lost == 0, cut
        live = {s.slice_id for s in restarted.live_slices()}
        for driver in testbed.registry.drivers():
            assert {r.slice_id for r in driver.list_reservations()} == live, (cut, driver.domain)
        store.close()
    return len(lines)


def test_every_cut_of_a_previous_format_window_recovers_exactly(tmp_path):
    assert check_every_cut(FIXTURE, tmp_path) == 35


def test_every_cut_of_todays_window_recovers_exactly(tmp_path):
    store_root = str(tmp_path / "today")
    window_scenario.run(store_root, through="window")
    assert check_every_cut(store_root, tmp_path) == 21


def test_broker_decided_never_decided_anything():
    """Each ``broker.decided`` of the previous format follows the record
    that already ended the window's claim on its request."""
    with open(os.path.join(FIXTURE, SHARD_DIR, "journal.jsonl")) as handle:
        records = [JournalRecord.from_line(line) for line in handle]
    seen = set()
    verdicts = 0
    for record in records:
        if record.record_type in ("install.started", "slice.rejected"):
            seen.add(request_of(record))
        elif record.record_type == "broker.decided":
            assert record.data["request_id"] in seen
            verdicts += 1
    assert verdicts == len(window_scenario.WINDOW)


def test_todays_window_writes_one_record_per_transition(tmp_path):
    """Per request one ``broker.enqueued``; per winner
    ``install.started`` + ``slice.installed``; per loser one
    ``slice.rejected`` — after ``install.started`` when the install is
    what failed.  Besides, only the failed install's unwinds, as events
    no transition raised."""
    store_root = str(tmp_path / "today")
    window_scenario.run(store_root)
    store = ControlPlaneStore(store_root, shard_id=window_scenario.SHARD)
    window = [r for r in store.records() if r.record_type != "checkpoint.written"]
    shape = [
        (r.record_type, request_of(r).replace("req-", ""))
        for r in window
        if r.record_type != "event.emitted"
    ]
    expected = [("broker.enqueued", name) for name in window_scenario.WINDOW]
    expected += [("slice.rejected", "d-loser")]
    expected += [("install.started", name) for name in ("a", "b", "c", "e-too-big")]
    expected += [("slice.installed", name) for name in ("a", "b", "c")]
    expected += [("slice.rejected", "e-too-big"), ("broker.enqueued", "open")]
    assert shape == expected
    unwinds = [r for r in window if r.record_type == "event.emitted"]
    assert {r.data["event"]["type"] for r in unwinds} == {"driver.rollback"}
    assert {r.data["event"]["slice_id"] for r in unwinds} == {"slice-e-too-big"}
    # The settling records carry the events, and the jobs' trails.
    for record in window:
        if record.record_type in ("slice.installed", "slice.rejected"):
            assert record.data["event"]["slice_id"] == record.data["slice_id"]
    assert [(r.record_type, request_of(r)) for r in window if "trail" in r.data] == [
        ("slice.installed", "req-a"),
        ("slice.installed", "req-b"),
        ("slice.installed", "req-c"),
        ("slice.rejected", "req-e-too-big"),
    ]
    store.close()
