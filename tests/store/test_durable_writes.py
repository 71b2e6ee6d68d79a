"""A shard's durable writes cost what changed.

- **Checkpoint fragments** — a checkpoint writes exactly the bytes of
  ``json.dumps({"lsn": lsn, "state": durable_state()})`` while it
  re-images and re-encodes only the live slices whose image inputs
  changed since the last one: every input the image reads is part of
  the reuse key, and the cache holds exactly the live slice ids.
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
import json
import os

import pytest

from repro.core.broker import SliceBroker
from repro.core.slices import SliceState
from repro.store import ControlPlaneStore, StoreError
from repro.store.codec import json_default
from repro.store.journal import Journal
from repro.store.snapshot import encode_member, encode_snapshot
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.store.conftest import make_orchestrator

MBPS = 5.0


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
    """Checkpoint ``orch``, assert the file holds the reference bytes and
    the cache exactly the live slice ids; returns the fragments encoded."""
    result = orch.durable.checkpoint()
    lsn = result["checkpoint_lsn"]
    with open(orch.store.snapshots._path_for(lsn), "rb") as handle:
        written = handle.read()
    state = orch.durable.state()
    reference = json.dumps({"lsn": lsn, "state": state}, sort_keys=True, default=json_default)
    assert written == reference.encode("utf-8")
    assert set(orch.durable.fragments.entries) == set(state["live"])
    orch.durable.verify()
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


def move_window(orch, runtime) -> None:
    request_id = runtime.network_slice.request.request_id
    booking = orch.calendar.get(request_id)
    orch.calendar.release(request_id)
    orch.calendar.commit(request_id, booking.start, booking.end + 60.0, booking.demand)


def rename_reservation(orch, runtime) -> None:
    domain, reservation = next(iter(runtime.reservations.items()))
    runtime.reservations[domain] = dataclasses.replace(reservation, reservation_id="renamed")


def rescale(orch, runtime) -> None:
    request = runtime.network_slice.request
    request.sla = dataclasses.replace(request.sla, throughput_mbps=2 * MBPS)


#: One edit per image input, each changing nothing else the image reads
#: (a writer in the orchestrator touches the slice it edits; these are
#: made beside it, so the test touches).
INPUT_EDITS = {
    "status": lambda orch, rt: setattr(rt.network_slice, "state", SliceState.DEPLOYING),
    "throughput": rescale,
    "plmn": lambda orch, rt: setattr(rt.network_slice, "plmn", None),
    "fraction": lambda orch, rt: setattr(rt, "effective_fraction", 0.5),
    "installed_at": lambda orch, rt: setattr(
        rt.network_slice, "admitted_at", rt.network_slice.admitted_at + 1.0
    ),
    "activated_at": lambda orch, rt: setattr(
        rt.network_slice, "active_at", rt.network_slice.active_at + 1.0
    ),
    "window": move_window,
    "reservations": rename_reservation,
}


@pytest.mark.parametrize("edit", sorted(INPUT_EDITS))
def test_a_fragment_is_re_encoded_when_any_image_input_changes(fleet, edit):
    """Every value the image reads is in the reuse key: changing one on
    one slice re-encodes that slice alone, and the bytes stay exact."""
    runtime = fleet.runtime(fleet.live_slices()[1].slice_id)
    INPUT_EDITS[edit](fleet, runtime)
    fleet.fleet.touch(runtime.network_slice.slice_id)
    assert checked_checkpoint(fleet) == 1


@pytest.mark.parametrize("edit", sorted(INPUT_EDITS))
def test_verify_names_an_image_input_that_changed_untouched(fleet, edit):
    runtime = fleet.runtime(fleet.live_slices()[1].slice_id)
    INPUT_EDITS[edit](fleet, runtime)
    with pytest.raises(StoreError, match="held image"):
        fleet.durable.verify()


def test_a_checkpoint_visits_only_the_slices_touched_since_the_last(fleet):
    assert checked_checkpoint(fleet) == 0 and fleet.durable.fragments.visited == 0
    live = fleet.live_slices()
    assert fleet.modify_slice(live[2].slice_id, 2 * MBPS).admitted
    assert checked_checkpoint(fleet) == 1 and fleet.durable.fragments.visited == 1
    fleet.terminate_early(live[0].slice_id)
    fleet.durable.verify()  # its image leaves at the next checkpoint
    fleet.durable.changed.discard(live[0].slice_id)  # as if its expiry had not touched it
    with pytest.raises(StoreError, match="held image"):
        fleet.durable.verify()


def test_an_unchanged_fleet_re_encodes_nothing_and_a_rescale_what_it_touched(fleet):
    assert checked_checkpoint(fleet) == 0
    live = fleet.live_slices()
    for network_slice in live[:2]:
        assert fleet.modify_slice(network_slice.slice_id, 2 * MBPS).admitted
    assert checked_checkpoint(fleet) == 2
    fleet.terminate_early(live[0].slice_id)  # leaves the cache with it
    assert checked_checkpoint(fleet) == 0
    assert len(fleet.durable.fragments.entries) == 3


def test_a_window_the_calendar_prunes_re_images_its_live_slice(fleet):
    """A window can end before its slice expires (a re-adopted slice's
    promise may): the reconfiguration's prune that drops it touches the
    slice, and the next checkpoint re-images it without its window."""
    runtime = fleet.runtime(fleet.live_slices()[1].slice_id)
    request_id = runtime.network_slice.request.request_id
    booking = fleet.calendar.get(request_id)
    fleet.calendar.release(request_id)
    fleet.calendar.commit(request_id, booking.start, 200.0, booking.demand)
    fleet.fleet.touch(runtime.network_slice.slice_id)
    assert checked_checkpoint(fleet) == 1
    fleet.sim.run_until(301.0)  # the first reconfiguring epoch prunes it
    assert not fleet.calendar.has(request_id) and runtime.network_slice.state is SliceState.ACTIVE
    assert checked_checkpoint(fleet) == 1


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
