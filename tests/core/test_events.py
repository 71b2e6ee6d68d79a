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
        from repro.core.orchestrator import Orchestrator, OrchestratorConfig
        from repro.core.slices import PlmnPool
        from repro.drivers.mock import MockDriver
        from repro.sim.engine import Simulator
        from repro.traffic.patterns import ConstantProfile
        from tests.conftest import make_request

        chaos = MockDriver("chaos", capacity_mbps=10_000.0, max_concurrent_installs=8)
        testbed.registry.register(chaos)
        orchestrator = Orchestrator(
            sim=Simulator(),
            allocator=testbed.allocator,
            plmn_pool=PlmnPool(size=12),
            config=OrchestratorConfig(install_timeout_s=0.15),
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
