"""Property-based invariants of the durable store's replay fold.

Two pillars of crash recovery:

1. **Replay determinism** — folding the same journal (or the same
   snapshot + tail) twice yields byte-identical state digests; the
   fold is a pure function of its inputs.  Randomized record sequences
   (hypothesis) cover orderings no hand-written test would.
2. **Conservation across recovery** — after a crash + restore against
   a real testbed, ``held == Σ demand of COMMITTED reservations``
   still holds exactly in the chaos domain, and every domain holds
   exactly the adopted slices (the concurrent-install invariant of
   ``test_concurrency_invariants`` survives the restart).
"""

from __future__ import annotations

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
        if kind in ("admission.enqueued", "install.started", "slice.installed"):
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
        else:
            data = {"slice_id": slice_id}
        if kind in EVENT_CARRIERS:
            data["event"] = {"seq": lsn, "type": kind, "tenant_id": None}
        records.append(
            JournalRecord(lsn=lsn, time=float(lsn), record_type=kind, data=data)
        )
    return records


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
