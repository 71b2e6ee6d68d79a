"""Recovery edge cases: empty journal, snapshot-only restores, corrupt
tails, advance bookings spanning the crash, quota restoration, and the
durable event-feed continuity across a restart."""

from __future__ import annotations

import inspect
import re

import pytest

from repro.api import build_orchestrator_api
from repro.api.service import SliceService, TenantQuota
from repro.api.v1 import build_v1_api
from repro.core.pricing import LedgerError
from repro.core.slices import SliceState, slice_id_for
from repro.drivers.base import DomainSpec
from repro.drivers.mock import MockDriver
from repro.store import RecoveryManager
from repro.store.codec import request_to_dict
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.source_reading import enclosing_functions, source_of, src_lines_matching
from tests.store.conftest import make_orchestrator, reopen_store
from tests.store.durable_reference import check_durable, live_images, live_state


def crash(orchestrator):
    """Simulate the process dying: the store stops accepting writes;
    the southbound (drivers/controllers) lives on."""
    orchestrator.store.close()


class TestEdgeCases:
    def test_empty_journal_restores_nothing(self, durable_testbed, tmp_path):
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        crash(first)
        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        report = RecoveryManager(restarted).restore()
        assert report.slices_adopted == 0
        assert report.slices_lost == 0
        assert report.admissions_requeued == 0
        assert restarted.live_slices() == []

    def test_snapshot_only_restore(self, durable_testbed, tmp_path):
        """All state in the snapshot, empty journal tail."""
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        decision = first.submit(
            make_request(throughput_mbps=10.0), ConstantProfile(10.0)
        )
        assert decision.admitted
        first.sim.run_until(10.0)  # ACTIVE
        first.durable.checkpoint()
        crash(first)
        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        report = RecoveryManager(restarted).restore()
        assert report.slices_adopted == 1
        adopted = restarted.slice(decision.slice_id)
        assert adopted.state is SliceState.ACTIVE
        assert adopted.plmn is not None

    def test_corrupt_truncated_tail_is_ignored(self, durable_testbed, tmp_path):
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        decision = first.submit(
            make_request(throughput_mbps=10.0), ConstantProfile(10.0)
        )
        assert decision.admitted
        crash(first)
        # The process died mid-append: a torn half-record at the tail.
        with open(directory + "/journal.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"lsn": 99999, "t": 1.0, "type": "slice.ins')
        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        report = RecoveryManager(restarted).restore()
        assert report.slices_adopted == 1
        assert restarted.slice(decision.slice_id).state in (
            SliceState.DEPLOYING, SliceState.ADMITTED
        )

    def test_advance_booking_spanning_the_crash(self, durable_testbed, tmp_path):
        """A promised future slice survives the restart: its calendar
        window is rebased and its install still fires."""
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        request = make_request(throughput_mbps=8.0, duration_s=600.0)
        decision = first.submit_advance(
            request, ConstantProfile(8.0), start_time=500.0
        )
        assert decision.admitted
        first.sim.run_until(100.0)  # crash well before the start time
        crash(first)

        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        report = RecoveryManager(restarted).restore()
        restarted.start()
        assert report.bookings_restored == 1
        booking = restarted.calendar.get(request.request_id)
        assert booking is not None
        # The newest durable heartbeat before the t=100 crash is the t=60
        # monitoring epoch: the restart continues the shard's clock there,
        # and the booking keeps its 500 s start, 440 s out.
        assert restarted.sim.now == 60.0 and booking.start == 500.0
        restarted.sim.run_until(510.0)
        network_slice = restarted.slice(slice_id_for(request.request_id))
        assert network_slice.state in (SliceState.DEPLOYING, SliceState.ACTIVE)

    def test_booking_whose_start_passed_is_promoted(
        self, durable_testbed, tmp_path
    ):
        """A booking whose start time elapsed during the outage is
        installed by the restore itself."""
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        request = make_request(throughput_mbps=8.0)
        first.store.append(
            "booking.committed",
            time=50.0,
            request=request_to_dict(request),
            start_time=20.0,  # already in the past at crash time 50
        )
        crash(first)
        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        report = RecoveryManager(restarted).restore()
        assert (report.bookings_promoted, report.bookings_restored) == (1, 0)
        assert report.admissions_requeued == 0
        assert restarted.slice(slice_id_for(request.request_id)).state is SliceState.DEPLOYING
        assert restarted.pending_bookings() == {}
        check_durable(restarted)

    def test_a_previous_formats_queued_admissions_are_installed_by_the_restore(
        self, durable_testbed, tmp_path
    ):
        """Nothing journals ``admission.enqueued`` any more, but a store
        the previous format wrote may hold some (as D12's journal does):
        the restore installs them, in journal order, before it returns."""
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        requests = [make_request(throughput_mbps=6.0) for _ in range(3)]
        for at, request in enumerate(requests):
            first.store.append(
                "admission.enqueued", time=float(at), request=request_to_dict(request)
            )
        crash(first)
        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        head = restarted.store.last_lsn
        report = RecoveryManager(restarted).restore()
        assert report.admissions_requeued == 3
        assert restarted.durable.fold.queued == {}
        assert [s.request.request_id for s in restarted.live_slices()] == [
            r.request_id for r in requests
        ]
        started = [  # references: the rebase queued each request's image
            record.data["request_id"]
            for record in restarted.store.records(head)
            if record.record_type == "install.started"
        ]
        assert started == [r.request_id for r in requests]
        check_durable(restarted)

    def test_only_the_fold_names_admission_enqueued_as_the_source_reads(self):
        """Nothing writes the record any more; the fold still reads it."""
        hits = src_lines_matching(r"admission\.enqueued")
        assert hits and {hit.split(":")[0] for hit in hits} == {"store/codec.py"}
        assert enclosing_functions(source_of("store/codec.py"), r'"admission\.enqueued"') == [
            "apply"
        ]

    def test_terminal_slices_stay_terminal(self, durable_testbed, tmp_path):
        """Expired/cancelled slices must not be resurrected."""
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        short = make_request(throughput_mbps=5.0, duration_s=30.0)
        decision = first.submit(short, ConstantProfile(5.0))
        assert decision.admitted
        first.sim.run_until(120.0)  # activated and expired
        assert first.slice(decision.slice_id).state is SliceState.EXPIRED
        crash(first)
        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        report = RecoveryManager(restarted).restore()
        assert report.slices_adopted == 0
        assert restarted.live_slices() == []


class TestServiceRecovery:
    def test_quotas_survive_the_restart(self, durable_testbed, tmp_path):
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.set_quota("tenant-a", max_active_slices=3, max_aggregate_mbps=50.0)
        crash(first)
        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        fresh_service = SliceService(restarted)
        report = RecoveryManager(restarted).restore()
        assert report.quotas_restored == 1
        quota = fresh_service.quota_for("tenant-a")
        assert quota.max_active_slices == 3
        assert quota.max_aggregate_mbps == 50.0

    def test_quotas_survive_serviceless_recovery_and_second_restart(
        self, durable_testbed, tmp_path
    ):
        """A restore run before any service exists must not lose the
        quotas: the orchestrator carries them, a later service reads
        them, and a *second* restart still sees them."""
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.set_quota("tenant-b", max_aggregate_mbps=25.0)
        crash(first)

        # Restore with NO service attached.
        second = make_orchestrator(durable_testbed, store=reopen_store(directory))
        report = RecoveryManager(second).restore()
        assert report.quotas_restored == 1
        late_service = SliceService(second)  # constructed after recovery
        assert late_service.quota_for("tenant-b").max_aggregate_mbps == 25.0
        crash(second)

        # The second restart folds the first recovery's records too.
        third = make_orchestrator(durable_testbed, store=reopen_store(directory))
        third_service = SliceService(third)
        report = RecoveryManager(third).restore()
        assert report.quotas_restored == 1
        assert third_service.quota_for("tenant-b").max_aggregate_mbps == 25.0

    def test_event_seq_continues_across_restart(self, durable_testbed, tmp_path):
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        assert first.submit(
            make_request(throughput_mbps=5.0), ConstantProfile(5.0)
        ).admitted
        pre_crash_seq = first.events.last_seq
        assert pre_crash_seq > 0
        crash(first)
        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        RecoveryManager(restarted).restore()
        # Every event emitted during and after recovery — including the
        # slice.adopted events reconciliation itself produces — numbers
        # strictly after the pre-crash feed, so a consumer's `since`
        # cursor never goes backwards and seqs are never reused.
        recovery_events = restarted.events.since(0)
        assert recovery_events, "recovery must emit events"
        assert all(e.seq > pre_crash_seq for e in recovery_events)
        assert any(e.event_type == "slice.adopted" for e in recovery_events)
        post = restarted.events.emit(restarted.sim.now, "test.event")
        assert post.seq > pre_crash_seq

    def test_recovery_checkpoints_to_a_compact_journal(
        self, durable_testbed, tmp_path
    ):
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        for mbps in (5.0, 6.0):
            assert first.submit(
                make_request(throughput_mbps=mbps), ConstantProfile(mbps)
            ).admitted
        crash(first)
        store = reopen_store(directory)
        head = store.last_lsn
        restarted = make_orchestrator(durable_testbed, store=store)
        report = RecoveryManager(restarted).restore()
        # Recovery's durable statement is compact without a checkpoint:
        # two records past the pre-recovery head, the rebase and the
        # completion, whatever the fleet — and no snapshot.
        assert store.snapshot_lsn == 0
        assert [r.record_type for r in store.records(head)] == [
            "recovery.rebased", "recovery.completed",
        ]
        # A second restart folds them to the state the first rebuilt.
        assert reopen_store(directory).replay().live == live_images(restarted)
        # The audit record is the report minus its wall-clock duration,
        # so one run journals the same bytes every time.
        audit = [r for r in store.records() if r.record_type == "recovery.completed"]
        assert [r.data["report"] for r in audit] == [
            {k: v for k, v in report.to_dict().items() if k != "duration_s"}
        ]
        assert report.to_dict()["duration_s"] == report.duration_s > 0.0
        # The live-slot rows and the fold follow the adopted fleet, before
        # its first epoch and checkpoint and after them.
        restarted.fleet.live_slots.verify(restarted.fleet)
        check_durable(restarted)
        restarted.start()
        restarted.sim.run_until(restarted.sim.now + 61.0)
        assert restarted.durable.checkpoint()["fragments_encoded"] == 2
        restarted.fleet.live_slots.verify(restarted.fleet)
        check_durable(restarted)


TENANT = {"X-Tenant-Id": "t1"}


def booking_body(**overrides):
    body = {
        "service_type": "embb",
        "throughput_mbps": 10.0,
        "max_latency_ms": 50.0,
        "duration_s": 3_600.0,
        "price": 100.0,
        "penalty_rate": 1.0,
    }
    body.update(overrides)
    return body


def book_then_crash(testbed, directory):
    """Quota 1 and one booking for ``t1`` at t=5 000, then a crash after
    the t=120 epoch; returns the booking id."""
    first = make_orchestrator(testbed, directory=directory)
    first.start()
    first.set_quota("t1", max_active_slices=1)
    api = build_v1_api(SliceService(first))
    booked = api.post("/v1/bookings", booking_body(start_time=5_000.0), headers=TENANT)
    assert booked.status == 201, booked.body
    first.sim.run_until(130.0)
    crash(first)
    return booked.body["booking_id"]


class TestBookingsAndQuotasHaveOneOwner:
    """The orchestrator owns bookings and quotas; the service reads them,
    so whatever recovery restores the tenant sees."""

    def test_a_cold_restart_lists_cancels_and_counts_its_bookings(
        self, durable_testbed, tmp_path
    ):
        directory = str(tmp_path / "store")
        booking_id = book_then_crash(durable_testbed, directory)
        restarted = make_orchestrator(durable_testbed, store=reopen_store(directory))
        RecoveryManager(restarted).restore()
        restarted.start()
        api = build_v1_api(SliceService(restarted))

        listing = api.get("/v1/bookings", headers=TENANT).body
        assert [(b["booking_id"], b["start"]) for b in listing["bookings"]] == [
            (booking_id, 5_000.0)  # the shard's one clock: the start it was booked at
        ]
        assert api.post("/v1/slices", booking_body(), headers=TENANT).status == 429
        assert api.delete(f"/v1/bookings/{booking_id}", headers=TENANT).status == 200
        assert not restarted.calendar.has(booking_id)
        assert api.post("/v1/slices", booking_body(), headers=TENANT).status == 201

    def test_services_built_before_and_after_restore_agree(
        self, durable_testbed, tmp_path
    ):
        directory = str(tmp_path / "store")
        booking_id = book_then_crash(durable_testbed, directory)
        restarted = make_orchestrator(durable_testbed, store=reopen_store(directory))
        early = SliceService(restarted)
        RecoveryManager(restarted).restore()
        late = SliceService(restarted)
        for service in (early, late):
            assert service.quota_for("t1") == TenantQuota(max_active_slices=1)
            assert [b["booking_id"] for b in service.list_bookings()] == [booking_id]
            assert service.quota_usage("t1") == {
                "active_slices": 1, "aggregate_mbps": 10.0
            }
            assert service.admin_state()["control_plane"]["quota_tenants"] == ["t1"]
        # ... and the journal still folds to the quota, whoever was built.
        assert reopen_store(directory).replay().quotas == {
            "t1": {"max_active_slices": 1, "max_aggregate_mbps": None}
        }

    def test_one_table_one_writer_as_the_source_reads(self):
        service = source_of("api/service.py")
        facade = service[service.index("class SliceService"):]
        assigned = set(re.findall(r"self\.(\w+)\s*(?::[^=\n]+)?=(?!=)", facade))
        assert assigned == {"orchestrator", "broker", "operations", "default_quota"}
        writers = src_lines_matching(r'"quota\.set"')
        assert {hit.split(":")[0] for hit in writers} == {
            "core/orchestrator.py", "store/codec.py",
        }
        assert enclosing_functions(source_of("core/orchestrator.py"), r'"quota\.set"') == [
            "set_quota"
        ]
        assert enclosing_functions(source_of("store/codec.py"), r'"quota\.set"') == [
            "apply"  # the fold reads it back
        ]
        assert "service" not in inspect.signature(RecoveryManager.__init__).parameters
        assert src_lines_matching(r"(?i)service", "store/recovery.py") == []


class TestRequestIdContinuity:
    def test_terminated_slices_still_advance_the_request_counter(
        self, durable_testbed, tmp_path
    ):
        """Slices that expired before the crash vanish from the live
        image, but their ids must never be re-issued after a restart."""
        from repro.core.slices import peek_request_counter

        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        short = make_request(throughput_mbps=5.0, duration_s=30.0)
        decision = first.submit(short, ConstantProfile(5.0))
        assert decision.admitted
        first.sim.run_until(120.0)  # activated and expired
        crash(first)
        restarted = make_orchestrator(
            durable_testbed, store=reopen_store(directory)
        )
        report = RecoveryManager(restarted).restore()
        assert report.slices_adopted == 0  # nothing lives — and yet:
        ordinal = int(short.request_id.rsplit("-", 1)[1])
        assert peek_request_counter() > ordinal


class _Died(Exception):
    """The recovering process was killed (test-only)."""


class TestAdoptionIsInMemory:
    """Adoption journals nothing: the ``recovery.rebased`` record after
    it is the commit point of a recovery, so a crash before it replays
    the *same* recovery, and the clocks a slice already served are
    carried."""

    @staticmethod
    def _restart(testbed, directory):
        return make_orchestrator(testbed, store=reopen_store(directory))

    @staticmethod
    def _restored(orchestrator):
        """Restore, then start; the restart's clock continues the journal's."""
        report = RecoveryManager(orchestrator).restore()
        orchestrator.start()
        return report

    def test_a_leader_dying_mid_adoption_does_not_tear_the_next_recovery(
        self, durable_testbed, tmp_path
    ):
        import shutil

        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        first.sim.run_until(3_000.0)
        slice_ids = []
        for _ in range(6):
            decision = first.submit(
                make_request(throughput_mbps=5.0, duration_s=10_000.0),
                ConstantProfile(5.0),
            )
            assert decision.admitted
            slice_ids.append(decision.slice_id)
        first.sim.run_until(8_000.0)
        crash(first)
        untouched = str(tmp_path / "untouched")
        shutil.copytree(directory, untouched)

        # The recovering process dies as the bulk build reads its fourth
        # adoption, before the batch goes live.
        second = self._restart(durable_testbed, directory)
        real_adopt, adopted = second.build_recovered_slices, []

        def adopt_then_die(adoptions):
            def feed():
                for adoption in adoptions:
                    if len(adopted) == 3:
                        crash(second)
                        raise _Died()
                    yield adoption
                    adopted.append(adoption[0].request_id)  # (request, plmn_id, ...)

            return real_adopt(feed())

        second.build_recovered_slices = adopt_then_die
        lsn_before = second.store.last_lsn
        try:
            RecoveryManager(second).restore()
        except _Died:
            pass
        else:
            raise AssertionError("the recovery was supposed to die mid-adoption")
        assert len(adopted) == 3
        assert second.store.last_lsn == lsn_before  # adoption wrote nothing

        third = self._restart(durable_testbed, directory)
        report = self._restored(third)
        assert report.slices_adopted == 6 and report.slices_lost == 0

        # The interrupted and the uninterrupted recovery are the same
        # recovery: same durable image behind the rebase record.
        straight = self._restart(durable_testbed, untouched)
        assert self._restored(straight).slices_adopted == 6
        assert third.store.replay().digest() == straight.store.replay().digest()
        assert live_state(third) == live_state(straight)
        assert third.durable.fold.digest() == straight.durable.fold.digest()

        # ~5 000 s of the 10 000 s were served before the crash: nothing
        # may expire 4 000 s after the restart (once, three re-journaled
        # slices did: new-clock activation, old-clock crash).
        restarted_at = third.sim.now
        third.sim.run_until(restarted_at + 4_000.0)
        assert [third.slice(s).state for s in slice_ids] == [SliceState.ACTIVE] * 6
        third.sim.run_until(restarted_at + 5_100.0)
        assert [third.slice(s).state for s in slice_ids] == [SliceState.EXPIRED] * 6

    def test_adopted_events_keep_their_order_and_seqs_off_the_journal(
        self, durable_testbed, tmp_path
    ):
        """One bulk adoption emits one ``slice.adopted`` per slice, in
        the journal's order, numbered straight on from the pre-crash
        feed — and none of them reaches the durable feed."""
        directory = str(tmp_path / "store")
        first = make_orchestrator(durable_testbed, directory=directory)
        first.start()
        slice_ids = []
        for mbps in (3.0, 4.0, 5.0, 6.0):
            decision = first.submit(make_request(throughput_mbps=mbps), ConstantProfile(mbps))
            assert decision.admitted
            slice_ids.append(decision.slice_id)
        first.sim.run_until(10.0)
        pre_crash_seq = first.events.last_seq
        crash(first)

        restarted = self._restart(durable_testbed, directory)
        head = restarted.store.last_lsn
        report = self._restored(restarted)
        assert report.slices_adopted == 4
        adopted = [
            e for e in restarted.events.since(0) if e.event_type == "slice.adopted"
        ]
        assert [e.slice_id for e in adopted] == slice_ids
        assert [e.seq for e in adopted] == list(
            range(pre_crash_seq + 1, pre_crash_seq + 5)
        )
        assert restarted.events.sink is not None  # the tee is back
        durable = [event["type"] for _, event in restarted.store.events_after(head)]
        assert durable == ["recovery.completed"]
        # The rebase record carries no event, only the seqs they used.
        rebase = restarted.store.records(head)[0]
        assert rebase.record_type == "recovery.rebased" and "event" not in rebase.data
        assert rebase.data["last_event_seq"] == adopted[-1].seq

    def test_lifetime_is_carried_across_repeated_recoveries(
        self, durable_testbed, tmp_path
    ):
        """Known defect 2: every adoption used to restart the slice's
        full ``duration_s``, so a slice re-adopted often enough never
        expired."""
        directory = str(tmp_path / "store")
        orchestrator = make_orchestrator(durable_testbed, directory=directory)
        orchestrator.start()
        orchestrator.sim.run_until(3_000.0)
        decision = orchestrator.submit(
            make_request(throughput_mbps=5.0, duration_s=10_000.0),
            ConstantProfile(5.0),
        )
        assert decision.admitted
        orchestrator.sim.run_until(5_000.0)
        for _ in range(3):  # three crash -> recover cycles, 2 000 s apart
            crash(orchestrator)
            orchestrator = self._restart(durable_testbed, directory)
            assert self._restored(orchestrator).slices_adopted == 1
            restarted_at = orchestrator.sim.now
            orchestrator.sim.run_until(restarted_at + 2_000.0)
        adopted = orchestrator.slice(decision.slice_id)
        assert adopted.state is SliceState.ACTIVE  # ~8 000 s served
        # Pro-rata accounting reads the carried activation time too.
        served = orchestrator.sim.now - adopted.active_at
        assert 7_900.0 <= served <= 8_000.0
        orchestrator.sim.run_until(restarted_at + 4_100.0)
        assert adopted.state is SliceState.EXPIRED

    def test_deploy_clock_is_carried_not_restarted(self, durable_testbed, tmp_path):
        """A slice adopted while DEPLOYING keeps the deploy time it had
        already waited: two recoveries in a row do not stretch it."""
        directory = str(tmp_path / "store")
        first = make_orchestrator(
            durable_testbed, directory=directory, deploy_time_s=300.0
        )
        first.start()
        decision = first.submit(
            make_request(throughput_mbps=5.0), ConstantProfile(5.0)
        )
        assert decision.admitted
        first.sim.run_until(130.0)  # last durable instant: the t=120 epoch
        crash(first)
        second = make_orchestrator(
            durable_testbed, store=reopen_store(directory), deploy_time_s=300.0
        )
        RecoveryManager(second).restore()
        second.start()
        assert second.sim.now == 120.0  # the shard's clock, continued
        second.sim.run_until(190.0)  # 120 + 60 of 300 waited
        assert second.slice(decision.slice_id).state is SliceState.DEPLOYING
        crash(second)
        third = make_orchestrator(
            durable_testbed, store=reopen_store(directory), deploy_time_s=300.0
        )
        RecoveryManager(third).restore()
        third.start()
        third.sim.run_until(third.sim.now + 125.0)  # 120 left at the second crash
        assert third.slice(decision.slice_id).state is SliceState.ACTIVE


@pytest.mark.xfail(
    strict=True,
    raises=LedgerError,
    reason="Known defect 1: adoption opens no ledger account. The fix is one "
    "line — ledger.book_admission(slice_id, request) in "
    "repro.store.recovery.bind_recovered — and waits for a benchmark PR: "
    "benchmarks/e2e/test_harness.py::"
    "test_failover_counts_failed_deletes_and_excuses_only_their_loss "
    "asserts that a DELETE after a promotion still fails.",
)
def test_readopted_slices_keep_their_ledger_accounts(durable_testbed, tmp_path):
    """A re-adopted slice can still be charged a penalty and refunded:
    the broker carries the penalties, so its books must survive the
    restart like the slice does."""
    directory = str(tmp_path / "store")
    first = make_orchestrator(durable_testbed, directory=directory, deploy_time_s=300.0)
    first.start()
    serving = first.submit(
        make_request(throughput_mbps=10.0, price=100.0, penalty_rate=2.0),
        ConstantProfile(10.0, noise_std=0.0),
    )
    first.sim.run_until(360.0)  # ACTIVE since t=300; t=360 is a durable tick
    pending = first.submit(
        make_request(throughput_mbps=5.0, price=80.0), ConstantProfile(5.0)
    )
    assert serving.admitted and pending.admitted
    crash(first)

    restarted = make_orchestrator(
        durable_testbed, store=reopen_store(directory), deploy_time_s=300.0
    )
    assert RecoveryManager(restarted).restore().slices_adopted == 2
    restarted.start()
    assert restarted.slice(serving.slice_id).state is SliceState.ACTIVE
    assert restarted.slice(pending.slice_id).state is SliceState.DEPLOYING

    # (i) Every link down: the serving slice violates, epoch after epoch.
    for link in durable_testbed.transport.topology.links():
        link.fail()
    restarted.sim.run_until(restarted.sim.now + 121.0)
    assert restarted.slice(serving.slice_id).violation_epochs == 2
    assert restarted.ledger.total_penalties == pytest.approx(2 * 2.0)

    # (ii) Both can be deleted, refunded by the usual rules.
    api = build_orchestrator_api(restarted)
    terminated = api.delete(f"/v1/slices/{serving.slice_id}")
    assert terminated.status == 200
    served = 121.0 + 60.0  # a minute before the crash, two since
    assert terminated.body["refund"] == pytest.approx(100.0 * (1 - served / 3_600.0))
    cancelled = api.delete(f"/v1/slices/{pending.slice_id}")
    assert cancelled.status == 200
    assert cancelled.body["refund"] == pytest.approx(80.0)


class TestOrphanUndo:
    """Recovery hands its orphans to the planner: each undo is an event
    on the registry clock under its driver's own deadline, and no wall
    clock is waited on."""

    @staticmethod
    def restore_with_orphans(testbed, tmp_path, firewall, stall=False):
        """Crash an empty control plane, leave one PREPARED and one
        COMMITTED orphan on ``firewall``, restore; returns the report,
        the restarted orchestrator and its ``driver.*`` records."""
        testbed.registry.register(firewall, replace=True)
        directory = str(tmp_path / "store")
        crash(make_orchestrator(testbed, directory=directory))
        firewall.prepare(DomainSpec(slice_id="slice-orphan-prepared", throughput_mbps=7.0))
        committed = firewall.prepare(
            DomainSpec(slice_id="slice-orphan-committed", throughput_mbps=9.0)
        )
        firewall.commit(committed)
        if stall:
            firewall.stall(1, kinds=("release",))
        restarted = make_orchestrator(testbed, store=reopen_store(directory))
        report = RecoveryManager(restarted).restore()
        records = [
            (r.record_type, r.data["slice_id"]) for r in restarted.store.records()
            if r.record_type.startswith("driver.")
        ]
        return report, restarted, records

    def test_orphans_are_undone_on_the_registry_clock(self, durable_testbed, tmp_path):
        firewall = MockDriver("firewall", capacity_mbps=100_000.0, release_latency_s=0.5)
        report, _, records = self.restore_with_orphans(durable_testbed, tmp_path, firewall)
        assert report.orphans_compensated == 2
        assert report.compensation_failures == 0
        assert firewall.reservations() == [] and firewall.held_mbps == 0.0
        # The rollback lands at once, the release 0.5 s of southbound time later.
        assert durable_testbed.registry.clock.now == 0.5
        assert records == [
            ("driver.compensated", "slice-orphan-prepared"),
            ("driver.compensated", "slice-orphan-committed"),
        ]

    def test_an_orphan_undo_fails_at_its_drivers_deadline(self, durable_testbed, tmp_path):
        firewall = MockDriver(
            "firewall", capacity_mbps=100_000.0, release_latency_s=0.5, operation_timeout_s=1.0
        )
        report, restarted, records = self.restore_with_orphans(
            durable_testbed, tmp_path, firewall, stall=True
        )
        assert report.orphans_compensated == 1
        assert report.compensation_failures == 1
        assert durable_testbed.registry.clock.now == 1.0
        assert restarted.planner.ops_timed_out == 1
        assert records == [
            ("driver.compensated", "slice-orphan-prepared"),
            ("driver.compensation_failed", "slice-orphan-committed"),
        ]
        assert firewall.held_mbps == 9.0
        # The hung release lands on release_stall(); nothing is held then.
        firewall.release_stall()
        assert firewall.reservations() == [] and firewall.held_mbps == 0.0
