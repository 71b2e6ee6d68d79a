"""Property-based invariants of the durable store's replay fold.

Three pillars of crash recovery:

1. **Replay determinism** — folding the same journal (or the same
   snapshot + tail) twice yields byte-identical state digests; the
   fold is a pure function of its inputs.  Randomized record sequences
   (hypothesis) cover orderings no hand-written test would.
2. **Conservation across recovery** — after a crash + restore against
   a real testbed, ``held == Σ demand of COMMITTED reservations``
   still holds exactly in the chaos domain, and every domain holds
   exactly the adopted slices (the concurrent-install invariant of
   ``test_concurrency_invariants`` survives the restart).
3. **Request dicts are replaced, never written into** — a request dict
   the image holds keeps its content while it is held, and a slice's
   stays the same object until a record replaces it.  A warm standby
   keeps each request decoded on that ground, so that a promotion
   decodes only its lag.
"""

from __future__ import annotations

import copy
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.slices import SLA, ServiceType, SliceRequest
from repro.drivers.base import ReservationState
from repro.store import RecoveryManager
from repro.store.codec import ReplayState, request_to_dict
from repro.store.journal import JournalRecord
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.store.conftest import (  # noqa: F401 - fixture import
    durable_testbed,
    make_orchestrator,
    reopen_store,
)

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=25 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _request_payload(index: int) -> dict:
    return request_to_dict(
        SliceRequest(
            tenant_id=f"tenant-{index % 3}",
            service_type=ServiceType.EMBB,
            sla=SLA(throughput_mbps=5.0 + index, max_latency_ms=50.0, duration_s=600.0),
            price=100.0,
            penalty_rate=1.0,
            request_id=f"req-{index:06d}",
        )
    )


#: One randomized journal step: (record_type template, subject index).
step = st.tuples(
    st.sampled_from(
        [
            "admission.enqueued",
            "install.started",
            "slice.installed",
            "slice.activated",
            "slice.expired",
            "slice.cancelled",
            "slice.rejected",
            "slice.modified",
            "slice.reconfigured",
            "booking.committed",
            "booking.cancelled",
            "quota.set",
            "event.emitted",
            "clock.tick",
        ]
    ),
    st.integers(min_value=0, max_value=7),
)


#: Transitions whose record carries the feed event they raised.
EVENT_CARRIERS = {
    "slice.installed", "slice.activated", "slice.expired", "slice.cancelled",
    "slice.rejected", "slice.reconfigured", "booking.cancelled",
}


def _materialize(steps) -> list:
    """Turn randomized (type, index) steps into valid journal records."""
    records = []
    for lsn, (kind, index) in enumerate(steps, start=1):
        slice_id = f"slice-{index:06d}"
        request_id = f"req-{index:06d}"
        if kind in ("admission.enqueued", "broker.enqueued", "install.started", "slice.installed"):
            data = {"request": _request_payload(index), "slice_id": slice_id}
            if kind == "slice.installed":
                data.update(
                    plmn="00101",
                    fraction=0.8,
                    window=[float(lsn), float(lsn) + 600.0],
                    reservations={"mock": f"mock-res-{index:06d}"},
                )
        elif kind == "booking.committed":
            data = {"request": _request_payload(index), "start_time": float(lsn + 100)}
        elif kind == "booking.cancelled":
            data = {"request_id": request_id}
        elif kind == "slice.rejected":
            data = {"request_id": request_id, "slice_id": slice_id, "reason": "x"}
        elif kind == "slice.modified":
            data = {"slice_id": slice_id, "throughput_mbps": 9.0 + index}
        elif kind == "slice.reconfigured":
            data = {"slice_id": slice_id, "fraction": 0.5}
        elif kind == "quota.set":
            data = {"tenant_id": f"tenant-{index % 3}", "max_active_slices": index}
        elif kind == "event.emitted":
            data = {"event": {"seq": lsn, "type": "x", "tenant_id": None}}
        elif kind == "clock.tick":
            data = {"epoch": lsn}
        elif kind == "recovery.rebased":
            data = {
                "shift": 7.5, "crash_time": float(lsn), "lost": [slice_id],
                "adopted_in_flight": {
                    f"slice-{(index + 1) % 8:06d}": {
                        "window": [float(lsn), float(lsn) + 600.0],
                        "reservations": {"mock": f"mock-res-{index:06d}"},
                    }
                },
                "last_event_seq": lsn,
            }
        else:
            data = {"slice_id": slice_id}
        if kind in EVENT_CARRIERS:
            data["event"] = {"seq": lsn, "type": kind, "tenant_id": None}
        records.append(
            JournalRecord(lsn=lsn, time=float(lsn), record_type=kind, data=data)
        )
    return records


#: Every record kind the fold reads a request or an image from.
fold_step = st.tuples(
    st.sampled_from(
        [
            "admission.enqueued", "broker.enqueued", "install.started", "slice.installed",
            "slice.activated", "slice.expired", "slice.cancelled", "slice.rejected",
            "slice.modified", "slice.reconfigured", "booking.committed",
            "booking.cancelled", "recovery.rebased", "clock.tick",
        ]
    ),
    st.integers(min_value=0, max_value=2),  # few slices: records meet on one
)

#: The records that give the slice they name a new request dict.
REPLACES_REQUEST = {"install.started", "slice.installed", "slice.modified"}


def replaced_by(record: JournalRecord) -> set:
    """The slices ``record`` hands a request dict they did not hold: the
    one it names, or the in-flight installs a rebase makes live."""
    if record.record_type in REPLACES_REQUEST:
        return {record.data["slice_id"]}
    return set(record.data.get("adopted_in_flight", ()))


def held_requests(state: ReplayState) -> list:
    """Every request dict the image holds."""
    images = [*state.live.values(), *state.in_flight.values(), *state.advance.values()]
    return [image["request"] for image in images] + [
        *state.queued.values(), *state.broker_pending.values()
    ]


class TestFoldDeterminism:
    @SLOW
    @given(st.lists(step, min_size=0, max_size=60))
    def test_same_journal_same_digest(self, steps):
        records = _materialize(steps)
        first = ReplayState.restore(None, records)
        second = ReplayState.restore(None, records)
        assert first.digest() == second.digest()

    @SLOW
    @given(st.lists(step, min_size=1, max_size=60), st.integers(min_value=0, max_value=59))
    def test_snapshot_plus_tail_equals_full_fold(self, steps, cut_at):
        """Checkpointing at any point must not change the folded state:
        fold-prefix → snapshot → fold-tail == fold-everything."""
        records = _materialize(steps)
        cut = min(cut_at, len(records))
        prefix_state = ReplayState.restore(None, records[:cut])
        via_snapshot = ReplayState.restore(prefix_state.to_dict(), records[cut:])
        full = ReplayState.restore(None, records)
        assert via_snapshot.digest() == full.digest()

    @settings(SLOW, max_examples=150 * EXAMPLE_MULTIPLIER)
    @given(st.lists(fold_step, min_size=20, max_size=80))
    def test_a_fold_replaces_request_dicts_and_never_writes_into_one(self, steps):
        state, first_seen = ReplayState(), {}  # id → (dict, its content when first held)
        for record in _materialize(steps):
            before = {
                (table, slice_id): image["request"]
                for table in ("live", "in_flight")
                for slice_id, image in getattr(state, table).items()
            }
            state.apply(record.record_type, record.time, record.data)
            for request in held_requests(state):
                _, content = first_seen.setdefault(id(request), (request, copy.deepcopy(request)))
                assert request == content, f"{record.record_type} wrote into a request dict"
            replaced = replaced_by(record)
            for (table, slice_id), request in before.items():
                image = getattr(state, table).get(slice_id)
                if image is not None and slice_id not in replaced:
                    assert image["request"] is request, f"{record.record_type} swapped {slice_id}"

    @SLOW
    @given(st.lists(step, min_size=0, max_size=40))
    def test_snapshot_round_trip_is_lossless(self, steps):
        state = ReplayState.restore(None, _materialize(steps))
        assert ReplayState.from_dict(state.to_dict()).digest() == state.digest()


class TestRecoveryConservation:
    def test_held_equals_sum_committed_after_recovery(
        self, durable_testbed, tmp_path
    ):
        """The concurrency suite's conservation invariant, post-restore:
        physically held capacity == Σ demand of COMMITTED reservations,
        and two restores of the same journal agree on the state digest."""
        directory = str(tmp_path / "store")
        firewall = durable_testbed.registry.get("firewall")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        decisions = first.install_admitted_batch(
            [
                (make_request(throughput_mbps=4.0 + i), ConstantProfile(4.0 + i))
                for i in range(6)
            ]
        )
        assert all(d.admitted for d in decisions)
        # Churn: one cancelled (its resources must NOT survive recovery).
        cancelled = decisions[0].slice_id
        first.cancel(cancelled, refund=False)
        # Digest of the journal as-of the crash, folded twice.
        digest_a = first.store.replay().digest()
        digest_b = first.store.replay().digest()
        assert digest_a == digest_b
        first.store.close()

        restarted = make_orchestrator(durable_testbed, store=reopen_store(directory))
        report = RecoveryManager(restarted).restore()
        assert report.slices_adopted == 5
        live_ids = {s.slice_id for s in restarted.live_slices()}
        assert cancelled not in live_ids
        committed = sum(
            r.spec.throughput_mbps * r.spec.effective_fraction
            for r in firewall.list_reservations()
            if r.state is ReservationState.COMMITTED
        )
        assert firewall.held_mbps == pytest.approx(committed)
        assert {r.slice_id for r in firewall.list_reservations()} == live_ids
