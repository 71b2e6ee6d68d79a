"""Tests for the bounded orchestration event log."""

from __future__ import annotations

import pytest

from repro.core.events import EventLog, EventLogError


class TestEventLog:
    def test_seq_is_monotonic_from_one(self):
        log = EventLog()
        first = log.emit(0.0, "slice.admitted", slice_id="slice-1")
        second = log.emit(1.0, "slice.activated", slice_id="slice-1")
        assert (first.seq, second.seq) == (1, 2)
        assert log.last_seq == 2

    def test_since_excludes_cursor(self):
        log = EventLog()
        for i in range(5):
            log.emit(float(i), "tick")
        events = log.since(3)
        assert [e.seq for e in events] == [4, 5]
        assert log.since(5) == []

    def test_since_limit(self):
        log = EventLog()
        for i in range(5):
            log.emit(float(i), "tick")
        assert [e.seq for e in log.since(0, limit=2)] == [1, 2]

    def test_capacity_evicts_oldest_but_keeps_seq(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit(float(i), "tick")
        assert len(log.since(0)) == 3
        assert log.first_seq == 8
        assert log.last_seq == 10
        # A consumer whose cursor fell behind retention sees the gap.
        assert [e.seq for e in log.since(0)] == [8, 9, 10]

    def test_to_dict_shape(self):
        log = EventLog()
        event = log.emit(2.5, "sla.violation", slice_id="s", tenant_id="t", penalty=1.0)
        assert event.to_dict() == {
            "seq": 1,
            "time": 2.5,
            "type": "sla.violation",
            "slice_id": "s",
            "tenant_id": "t",
            "data": {"penalty": 1.0},
        }

    def test_invalid_inputs(self):
        with pytest.raises(EventLogError):
            EventLog(capacity=0)
        with pytest.raises(EventLogError):
            EventLog().since(-1)


class TestOrchestratorEmission:
    def test_expiry_and_violation_events(self, testbed):
        from repro.core.orchestrator import Orchestrator
        from repro.sim.engine import Simulator
        from repro.sim.randomness import RandomStreams
        from repro.traffic.patterns import ConstantProfile
        from tests.conftest import make_request

        sim = Simulator()
        orchestrator = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            streams=RandomStreams(seed=7),
        )
        orchestrator.start()
        request = make_request(duration_s=600.0)
        orchestrator.submit(request, ConstantProfile(20.0, level=0.5))
        sim.run_until(1_000.0)
        types = [e.event_type for e in orchestrator.events.since(0)]
        assert "slice.admitted" in types
        assert "slice.activated" in types
        assert "slice.expired" in types


class TestEventLogSinkAndResume:
    def test_sink_sees_every_emitted_event(self):
        log = EventLog()
        seen = []
        log.sink = seen.append
        event = log.emit(1.0, "slice.admitted", slice_id="s1")
        assert seen == [event]

    def test_resume_from_never_reuses_seqs(self):
        log = EventLog()
        log.emit(0.0, "tick")
        log.resume_from(41)
        assert log.emit(1.0, "tick").seq == 42
        # Resuming backwards is a no-op: numbering stays monotonic.
        log.resume_from(5)
        assert log.emit(2.0, "tick").seq == 43


class TestPlannerIncidentEvents:
    def test_op_timeout_surfaces_on_the_feed_with_tenant(self, testbed):
        """Satellite of the durability PR: planner op timeouts and
        compensations are *events*, not just counters — attributed to
        the slice's tenant on the northbound feed."""
        from repro.core.orchestrator import Orchestrator
        from repro.core.slices import PlmnPool
        from repro.drivers.mock import MockDriver
        from repro.sim.engine import Simulator
        from repro.traffic.patterns import ConstantProfile
        from tests.conftest import make_request

        chaos = MockDriver(
            "chaos", capacity_mbps=10_000.0, max_concurrent_installs=8,
            operation_timeout_s=0.15,
        )
        testbed.registry.register(chaos)
        orchestrator = Orchestrator(
            sim=Simulator(),
            allocator=testbed.allocator,
            plmn_pool=PlmnPool(size=12),
            registry=testbed.registry,
        )
        chaos.stall()  # the next chaos-domain operation hangs
        request = make_request(throughput_mbps=5.0, tenant="tenant-x")
        try:
            (decision,) = orchestrator.install_admitted_batch(
                [(request, ConstantProfile(5.0))]
            )
            assert not decision.admitted
            timeouts = [
                e for e in orchestrator.events.since(0)
                if e.event_type == "driver.op_timeout"
            ]
            assert timeouts, "driver.op_timeout expected on the feed"
            assert timeouts[0].tenant_id == "tenant-x"
            assert timeouts[0].data["domain"] == "chaos"
        finally:
            chaos.release_stall()


class TestNewestEndWalk:
    """``since`` and ``after_lsn`` walk the log from its newest end and
    stop at the first event at or below the cursor; the comprehension
    over the whole log they replaced is the oracle."""

    @staticmethod
    def filled(rng, capacity: int, count: int, gap_at: int) -> EventLog:
        log = EventLog(capacity=capacity)
        lsn = 0
        for i in range(count):
            if i == gap_at:
                log.resume_from(log.last_seq + rng.randint(1, 50))
            event = log.append(float(i), "tick")
            if rng.random() < 0.7:  # journaled; LSNs rise with seq, with holes
                lsn += rng.randint(1, 3)
                event.lsn = lsn
        return log

    def test_since_equals_the_full_scan(self):
        import random

        rng = random.Random(1)
        for _ in range(300):
            capacity = rng.randint(1, 12)
            log = self.filled(rng, capacity, rng.randint(0, 30), rng.randint(0, 30))
            retained = list(log._events)
            cursor = rng.randint(0, log.last_seq + 2)
            limit = rng.choice([None, 0, 1, 2, 5, 100])
            expected = [e for e in retained if e.seq > cursor]
            if limit is not None:
                expected = expected[:limit]
            assert log.since(cursor, limit=limit) == expected

    def test_after_lsn_equals_the_full_scan(self):
        import random

        rng = random.Random(2)
        for _ in range(300):
            log = self.filled(rng, rng.randint(1, 12), rng.randint(0, 30), rng.randint(0, 30))
            retained = list(log._events)
            top = max((e.lsn for e in retained), default=0)
            cursor = rng.randint(0, top + 2)
            assert log.after_lsn(cursor) == [e for e in retained if e.lsn > cursor]

    def test_eviction_floor_is_the_highest_evicted_lsn(self):
        log = EventLog(capacity=2)
        for lsn in (1, 0, 4, 0, 7):
            log.append(0.0, "tick").lsn = lsn
        # 1, 0 and 4 are evicted; the unjournaled one never lowers it.
        assert log.evicted_lsn == 4
        assert [e.lsn for e in log.after_lsn(0)] == [7]

    def test_a_batch_appends_as_the_calls_made_one_at_a_time(self):
        import random

        from repro.obs.registry import ControlPlaneObservability

        rng = random.Random(3)
        for _ in range(300):
            shape = (rng.randint(1, 12), rng.randint(0, 30), rng.randint(0, 30))
            seed = rng.random()
            rows = [
                (f"slice-{i}", rng.choice([None, "t"]), {"state": "active"})
                for i in range(rng.randint(0, 20))
            ]
            one_by_one, batched = (self.filled(random.Random(seed), *shape) for _ in range(2))
            for log in (one_by_one, batched):
                log.obs = ControlPlaneObservability()
            for slice_id, tenant_id, data in rows:
                one_by_one.append(5.0, "slice.adopted", slice_id, tenant_id, **data)
            batched.append_many(5.0, "slice.adopted", rows)
            facts = [
                (list(log._events), log.last_seq, log.evicted_lsn, log.obs.counters(),
                 log.obs.gauges())
                for log in (one_by_one, batched)
            ]
            assert facts[1] == facts[0]

    def test_the_walk_stops_at_the_cursor(self):
        log = EventLog(capacity=1024)
        for i in range(1000):
            log.append(float(i), "tick").lsn = i + 1
        seen = []
        log._after(lambda e: seen.append(e) or e.seq, 995)
        assert len(seen) == 6  # 1000..996, then 995 stops it
