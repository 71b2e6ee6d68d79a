"""A shard's durable writes cost what changed.

- **Checkpoint fragments** — a checkpoint writes exactly the bytes of
  ``json.dumps({"lsn": lsn, "state": fold.to_dict()})``, the leader's
  fold of every record it appended, while it re-encodes only the live
  images a folded record changed since the last one: the fold names
  them itself, and the held fragments are exactly the live slice ids.
- **Group commit** — a batch verb (a broker window's flush, the
  admission-queue drain) journals its records with the ``fsync_every``
  threshold suspended and one fsync on exit, before any requester is
  told; outside a batch the threshold is unchanged, and a ``sync()``
  with nothing unsynced issues no fsync.
- **Kill vs close** — a simulated SIGKILL closes the journal without an
  fsync; a clean close syncs what is unsynced.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os

import pytest

from repro.core import slices
from repro.core.broker import SliceBroker
from repro.core.overbooking import FixedOverbooking
from repro.core.slices import SliceState
from repro.store import ControlPlaneStore, RecoveryManager
from repro.store.codec import ReplayState, json_default
from repro.store.journal import Journal
from repro.store.snapshot import encode_member, encode_snapshot
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.store import window_scenario
from tests.store.conftest import make_orchestrator, reopen_store
from tests.store.durable_reference import check_durable

MBPS = 5.0
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def count_fsyncs(monkeypatch) -> list:
    """Every ``os.fsync`` issued from here on, by file descriptor."""
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        calls.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


def checked_checkpoint(orch) -> int:
    """Checkpoint ``orch``, assert the file holds the fold's reference
    bytes, the held fragments exactly the live slice ids and the fold
    what the store and the live objects say; returns the fragments
    encoded."""
    result = orch.durable.checkpoint()
    lsn = result["checkpoint_lsn"]
    with open(orch.store.snapshots._path_for(lsn), "rb") as handle:
        written = handle.read()
    state = orch.durable.fold.to_dict()
    assert written == encode_snapshot(lsn, state)
    reference = json.dumps({"lsn": lsn, "state": state}, sort_keys=True, default=json_default)
    assert written == reference.encode("utf-8")
    assert set(orch.durable.fragments) == set(state["live"])
    assert not orch.durable.fold.changed
    check_durable(orch)
    return result["fragments_encoded"]


@pytest.fixture
def fleet(durable_testbed, tmp_path):
    """Four ACTIVE slices on a durable control plane, checkpointed once."""
    orch = make_orchestrator(durable_testbed, directory=str(tmp_path / "store"))
    orch.start()
    decisions = orch.install_admitted_batch(
        [(make_request(throughput_mbps=MBPS), ConstantProfile(MBPS)) for _ in range(4)]
    )
    assert all(decision.admitted for decision in decisions)
    orch.sim.run_until(10.0)
    assert checked_checkpoint(orch) == 4
    yield orch
    orch.store.close()


def install_one(orch, testbed, activate: bool = False):
    decision = orch.install_admitted(make_request(throughput_mbps=MBPS), ConstantProfile(MBPS))
    assert decision.admitted
    if activate:
        assert checked_checkpoint(orch) == 1
        orch.sim.run_until(orch.sim.now + orch.config.deploy_time_s)  # before the next epoch
        assert orch.slice(decision.slice_id).state is SliceState.ACTIVE
    return orch, {decision.slice_id}


def reconfigure(orch, testbed):
    slice_id = orch.live_slices()[1].slice_id
    runtime = orch.runtime(slice_id)
    orch.config.min_history_for_forecast = 0  # no epoch has served it yet
    orch.fleet.reconfigure({slice_id: runtime}, FixedOverbooking(2.0))
    assert runtime.effective_fraction == 0.5
    return orch, {slice_id}


def restart(orch, testbed):
    """A kill and a restart: the new process folds on from the image it
    restored, and its rebase moves every live image onto the new clock."""
    live = {s.slice_id for s in orch.live_slices()}
    orch.store.close(sync=False)
    restarted = make_orchestrator(testbed, store=reopen_store(orch.store.directory))
    assert RecoveryManager(restarted).restore().slices_adopted == len(live)
    return restarted, live


def cancel_one(orch, testbed):
    _, (slice_id,) = install_one(orch, testbed)
    assert checked_checkpoint(orch) == 1
    orch.cancel(slice_id)  # still DEPLOYING
    return orch, {slice_id}


#: Every image input, with the one journaled record that moves it — and
#: the two records that drop an image — as ``(record type, operation)``:
#: an operation returns the control plane and the slices its records
#: name (a rebase names every slice it moves onto the new clock).
LIVE_CHANGES = {
    "plmn": ("slice.installed", install_one),
    "reservations": ("slice.installed", install_one),
    "status": ("slice.activated", lambda orch, tb: install_one(orch, tb, activate=True)),
    "throughput": ("slice.modified", lambda orch, tb: (orch, {
        s.slice_id for s in orch.live_slices()[1:2]
        if orch.modify_slice(s.slice_id, 2 * MBPS).admitted
    })),
    "fraction": ("slice.reconfigured", reconfigure),
    "installed_at": ("recovery.rebased", restart),
    "activated_at": ("recovery.rebased", restart),
    "window": ("recovery.rebased", restart),
    "expired": ("slice.expired", lambda orch, tb: (orch, {
        s.slice_id for s in orch.live_slices()[1:2] if orch.terminate_early(s.slice_id) >= 0
    })),
    "cancelled": ("slice.cancelled", cancel_one),
}


def image_input(image, name):
    if image is None:
        return None
    return image["request"]["throughput_mbps"] if name == "throughput" else image[name]


@pytest.mark.parametrize("change", sorted(LIVE_CHANGES))
def test_a_fragment_is_re_encoded_when_any_image_input_changes(fleet, durable_testbed, change):
    """An image input changes only by a journaled record, and the fold
    names the slices that record changed (or dropped): the checkpoint
    re-encodes those still live, alone, and the bytes stay exact."""
    record_type, operation = LIVE_CHANGES[change]
    before, head = json.loads(json.dumps(fleet.durable.fold.live)), fleet.store.last_lsn
    orch, named = operation(fleet, durable_testbed)
    assert record_type in {r.record_type for r in orch.store.records(head)}
    assert orch.durable.fold.changed == named
    after = orch.durable.fold.live
    for slice_id in named:
        if record_type in ("slice.expired", "slice.cancelled"):
            assert slice_id not in after
        else:
            assert image_input(before.get(slice_id), change) != image_input(after[slice_id], change)
    assert checked_checkpoint(orch) == len(named & set(after))
    if orch is not fleet:
        orch.store.close()


#: One hand edit per image input, each changing nothing else the image
#: reads and journaling nothing: what the fold cannot see.
INPUT_EDITS = {
    "status": lambda orch, rt: setattr(rt.network_slice, "state", SliceState.DEPLOYING),
    "throughput": lambda orch, rt: setattr(
        rt.network_slice.request, "sla",
        dataclasses.replace(rt.network_slice.request.sla, throughput_mbps=2 * MBPS),
    ),
    "plmn": lambda orch, rt: setattr(rt.network_slice, "plmn", None),
    "fraction": lambda orch, rt: setattr(rt, "effective_fraction", 0.5),
    "installed_at": lambda orch, rt: setattr(
        rt.network_slice, "admitted_at", rt.network_slice.admitted_at + 1.0
    ),
    "activated_at": lambda orch, rt: setattr(
        rt.network_slice, "active_at", rt.network_slice.active_at + 1.0
    ),
    "window": lambda orch, rt: move_window(orch, rt.network_slice.request.request_id),
    "reservations": lambda orch, rt: rt.reservations.update({
        domain: dataclasses.replace(reservation, reservation_id="renamed")
        for domain, reservation in list(rt.reservations.items())[:1]
    }),
}


def move_window(orch, request_id: str) -> None:
    booking = orch.calendar.get(request_id)
    orch.calendar.release(request_id)
    orch.calendar.commit(request_id, booking.start, booking.end + 60.0, booking.demand)


@pytest.mark.parametrize("edit", sorted(INPUT_EDITS))
def test_verify_names_an_image_input_that_changed_untouched(fleet, edit):
    """The live-object reference (:func:`check_durable`) sees every
    image input: one changed with no record to say so is a difference."""
    check_durable(fleet)
    INPUT_EDITS[edit](fleet, fleet.runtime(fleet.live_slices()[1].slice_id))
    with pytest.raises(AssertionError):
        check_durable(fleet)


def test_a_checkpoint_visits_only_the_slices_touched_since_the_last(fleet):
    assert checked_checkpoint(fleet) == 0
    live = fleet.live_slices()
    assert fleet.modify_slice(live[2].slice_id, 2 * MBPS).admitted
    assert fleet.durable.fold.changed == {live[2].slice_id}
    assert checked_checkpoint(fleet) == 1
    fleet.terminate_early(live[0].slice_id)  # its image leaves at the next checkpoint
    assert live[0].slice_id in fleet.durable.fragments
    assert checked_checkpoint(fleet) == 0
    assert live[0].slice_id not in fleet.durable.fragments


def test_an_unchanged_fleet_re_encodes_nothing_and_a_rescale_what_it_touched(fleet):
    assert checked_checkpoint(fleet) == 0
    live = fleet.live_slices()
    for network_slice in live[:2]:
        assert fleet.modify_slice(network_slice.slice_id, 2 * MBPS).admitted
    assert checked_checkpoint(fleet) == 2
    fleet.terminate_early(live[0].slice_id)  # leaves the cache with it
    assert checked_checkpoint(fleet) == 0
    assert len(fleet.durable.fragments) == 3


def test_a_pruned_window_restores_as_an_uninterrupted_run_holds_it(
    durable_testbed, tmp_path, monkeypatch
):
    """A promise can end before its slice does, and a reconfiguring
    epoch then prunes the window while the slice lives on.  No record
    says so: the fold keeps ``[start, end]`` until the slice leaves, and
    a restart adopts it as ``[now, now + 1e-9]`` — holding nothing past
    ``now``, as the uninterrupted run, which holds no window at all.  An
    image without a window would instead book a fresh promise from the
    slice's admission, reaching past ``now``."""
    directory = str(tmp_path / "store")
    orch = make_orchestrator(durable_testbed, directory=directory)
    orch.start()
    request = make_request(throughput_mbps=MBPS)
    with monkeypatch.context() as patch:
        patch.setattr(orch, "_promise_end", lambda request, start: 200.0)
        decision = orch.submit(request, ConstantProfile(MBPS))
    assert decision.admitted
    orch.sim.run_until(250.0)  # the window has ended
    assert checked_checkpoint(orch) == 1
    orch.sim.run_until(301.0)  # the first reconfiguring epoch prunes it
    assert not orch.calendar.has(request.request_id)
    assert orch.slice(decision.slice_id).state is SliceState.ACTIVE
    assert orch.durable.fold.live[decision.slice_id]["window"] == [0.0, 200.0]
    check_durable(orch)
    assert checked_checkpoint(orch) == 0  # the prune changed no image
    orch.store.close(sync=False)

    restarted = make_orchestrator(durable_testbed, store=reopen_store(directory))
    RecoveryManager(restarted).restore()
    now, booking = restarted.sim.now, restarted.calendar.get(request.request_id)
    assert (booking.start, booking.end) == (now, now + 1e-9)
    admitted_at = restarted.slice(decision.slice_id).admitted_at
    assert restarted._promise_end(request, admitted_at) > now  # what None would book
    check_durable(restarted)
    restarted.store.close()


def test_a_plain_state_dict_still_checkpoints_to_the_same_bytes(tmp_path):
    """``ControlPlaneStore.checkpoint`` keeps taking a plain state dict,
    and spliced fragments make no byte of difference."""
    state = {"time": 3.5, "quotas": {"t": {"max_active_slices": 2}},
             "live": {"slice-b": {"x": [1.0, None]}, "slice-a": {"é": 1}}}
    fragments = {key: encode_member(key, value) for key, value in state["live"].items()}
    plain = encode_snapshot(7, state)
    assert plain == json.dumps({"lsn": 7, "state": state}, sort_keys=True).encode()
    sections = {key: value for key, value in state.items() if key != "live"}
    assert encode_snapshot(7, sections, fragments) == plain
    empty = encode_snapshot(7, {"time": 0.0}, {})
    assert empty == b'{"lsn": 7, "state": {"live": {}, "time": 0.0}}'
    store = ControlPlaneStore(str(tmp_path))
    store.append("t")
    lsn = store.checkpoint(state)
    with open(store.snapshots._path_for(lsn), "rb") as handle:
        assert handle.read() == encode_snapshot(lsn, state)
    store.close()


def test_a_shard_without_a_broker_checkpoints_an_empty_window(tmp_path, monkeypatch):
    """The one byte difference from the image the previous revision
    built off live objects: a shard with no broker writes
    ``"broker_pending": {}``, where that image had no such member.  The
    fixture is :mod:`tests.store.window_scenario`'s checkpoint (taken
    before its broker exists) as that revision wrote it, from a fresh
    process; both forms restore to the same state.  Regenerate it with
    that revision's ``src`` first on the path::

        PYTHONPATH=<previous revision's src>:. python -c \\
            "from tests.store import window_scenario; window_scenario.run('<dir>')"

    and copy ``<dir>/shard-000/snapshot-*.json`` here."""
    [name] = os.listdir(os.path.join(FIXTURES, "no-broker-checkpoint"))
    with open(os.path.join(FIXTURES, "no-broker-checkpoint", name), "rb") as handle:
        before = handle.read()
    monkeypatch.setattr(slices, "_request_counter", itertools.count(1))  # a fresh process
    window_scenario.run(str(tmp_path))
    with open(os.path.join(tmp_path, "shard-000", name), "rb") as handle:
        written = handle.read()
    assert b'"broker_pending"' not in before
    assert written == before.replace(b'"advance": {}, ', b'"advance": {}, "broker_pending": {}, ')
    states = [json.loads(raw)["state"] for raw in (before, written)]
    assert len({ReplayState.from_dict(state).digest() for state in states}) == 1


def test_a_handed_off_fold_shares_nothing_a_fold_writes(fleet, durable_testbed):
    """A promotion hands one fold to two owners through one
    ``from_dict(to_dict())`` round trip.  The copy shares no member, no
    image and no entry with its source, and a fold never writes into the
    values nested deeper (requests, windows, reservations): folding any
    record into one leaves the other as it was."""
    source = ReplayState.restore(*fleet.store.load())
    live = list(source.live)
    for record_type, data in (
        ("booking.committed", {"request": {"request_id": "req-b"}, "start_time": 9e3}),
        ("admission.enqueued", {"request": {"request_id": "req-q"}}),
        ("install.started", {"request": {"request_id": "req-f"}, "slice_id": "slice-f"}),
    ):
        source.apply(record_type, fleet.sim.now, data)
    copy = ReplayState.from_dict(source.to_dict())
    assert copy.digest() == source.digest()
    for name, member in source.to_dict().items():
        if isinstance(member, dict):
            shared = [k for k, v in member.items() if v is copy.to_dict()[name].get(k)
                      and isinstance(v, dict)]
            assert member is not copy.to_dict()[name] and shared == [], name
    image = json.dumps(source.to_dict(), sort_keys=True)
    for record_type, data in (
        ("slice.modified", {"slice_id": live[0], "throughput_mbps": 9.0}),
        ("slice.reconfigured", {"slice_id": live[1], "fraction": 0.5}),
        ("slice.activated", {"slice_id": live[2]}),
        ("slice.expired", {"slice_id": live[3]}),
        ("quota.set", {"tenant_id": "t", "max_active_slices": 1}),
        ("recovery.rebased", {"shift": 5.0, "crash_time": 1e4, "lost": [],
                              "adopted_in_flight": {}, "last_event_seq": 99}),
    ):
        copy.apply(record_type, fleet.sim.now + 1.0, data)
    assert json.dumps(source.to_dict(), sort_keys=True) == image
    assert copy.digest() != source.digest()


# ----------------------------------------------------------------------
# Group commit
# ----------------------------------------------------------------------
def test_a_64_request_window_is_one_fsync_before_the_first_callback(
    durable_testbed, tmp_path, monkeypatch
):
    orch = make_orchestrator(durable_testbed, directory=str(tmp_path / "store"))
    orch.start()
    broker = SliceBroker(orch, window_s=300.0)
    told = []  # fsyncs issued when each decision was told
    for _ in range(64):
        broker.submit(
            make_request(throughput_mbps=MBPS), ConstantProfile(MBPS),
            on_decision=lambda decision: told.append(len(calls)),
        )
    orch.store.sync()  # the enqueues' own group commit, out of the count
    before = orch.store.last_lsn
    calls = count_fsyncs(monkeypatch)
    outcomes = broker.flush()
    assert len(outcomes) == 64 and any(o.admitted for o in outcomes)
    assert not all(o.admitted for o in outcomes)  # rejections are journaled too
    assert orch.store.last_lsn - before > orch.config.journal_fsync_every
    assert len(calls) == 1
    assert told == [1] * 64
    orch.store.close()


def test_the_admission_drain_is_one_fsync_before_the_first_callback(
    durable_testbed, tmp_path, monkeypatch
):
    orch = make_orchestrator(durable_testbed, directory=str(tmp_path / "store"))
    told = []
    for _ in range(24):
        orch.enqueue_admitted(
            make_request(throughput_mbps=MBPS), ConstantProfile(MBPS),
            on_decision=lambda decision: told.append(len(calls)),
        )
    orch.store.sync()
    calls = count_fsyncs(monkeypatch)
    orch._drain_admission_queue()
    assert len(calls) == 1
    assert told == [1] * 24
    orch.store.close()


def test_a_batch_whose_body_raises_still_syncs(tmp_path, monkeypatch):
    journal = Journal(str(tmp_path / "journal.jsonl"), fsync_every=16)
    calls = count_fsyncs(monkeypatch)
    with pytest.raises(RuntimeError):
        with journal.batch():
            for _ in range(40):  # past the threshold twice: no fsync inside
                journal.append("t")
            assert calls == []
            raise RuntimeError("the window died")
    assert len(calls) == 1
    journal.close()
    assert len(calls) == 1  # nothing left unsynced to close


def test_nested_batches_sync_once_on_the_outermost_exit(tmp_path, monkeypatch):
    journal = Journal(str(tmp_path / "journal.jsonl"), fsync_every=4)
    calls = count_fsyncs(monkeypatch)
    with journal.batch():
        with journal.batch():
            for _ in range(10):
                journal.append("t")
        assert calls == []
        journal.append("t")
    assert len(calls) == 1
    journal.close()


def test_outside_a_batch_the_threshold_is_unchanged(tmp_path, monkeypatch):
    journal = Journal(str(tmp_path / "journal.jsonl"), fsync_every=16)
    calls = count_fsyncs(monkeypatch)
    for _ in range(47):
        journal.append("t")
    assert len(calls) == 2  # at records 16 and 32
    with journal.batch():
        pass  # 15 unsynced from before: an empty batch syncs them
    assert len(calls) == 3
    journal.close()


def test_sync_with_nothing_unsynced_issues_no_fsync(tmp_path, monkeypatch):
    journal = Journal(str(tmp_path / "journal.jsonl"), fsync_every=16)
    calls = count_fsyncs(monkeypatch)
    journal.sync()
    assert calls == []
    journal.append("t")
    journal.sync()
    journal.sync()
    with journal.batch():
        pass
    assert len(calls) == 1
    journal.close()
    assert len(calls) == 1


def test_the_opt_out_sentinel_keeps_a_batch_from_syncing(tmp_path, monkeypatch):
    journal = Journal(str(tmp_path / "journal.jsonl"), fsync_every=0)
    calls = count_fsyncs(monkeypatch)
    with journal.batch():
        journal.append("t")
    assert calls == []
    journal.sync()  # an explicit sync still does
    assert len(calls) == 1
    journal.close()


# ----------------------------------------------------------------------
# Kill vs close
# ----------------------------------------------------------------------
def test_a_crash_close_issues_no_fsync_and_a_clean_one_syncs(tmp_path, monkeypatch):
    killed = Journal(str(tmp_path / "killed.jsonl"), fsync_every=16)
    clean = Journal(str(tmp_path / "clean.jsonl"), fsync_every=16)
    for journal in (killed, clean):
        for _ in range(3):
            journal.append("t")
    calls = count_fsyncs(monkeypatch)
    killed.close(sync=False)
    assert calls == []
    assert killed.append("t") == 0  # appends stop
    reopened = Journal(killed.path)  # the flushed records stay readable
    assert [r.lsn for r in reopened.records()] == [1, 2, 3]
    reopened.close()
    clean.close()
    assert len(calls) == 1
