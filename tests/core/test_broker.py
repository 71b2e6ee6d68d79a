"""Tests for the batch-window slice broker."""

from __future__ import annotations

import pytest

from repro.core.admission import FcfsPolicy, KnapsackPolicy
from repro.core.broker import BrokerError, SliceBroker
from repro.core.orchestrator import Orchestrator
from repro.core.slices import SliceState
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request


@pytest.fixture
def stack(testbed):
    sim = Simulator()
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=4),
    )
    orchestrator.start()
    broker = SliceBroker(orchestrator, window_s=300.0, policy=KnapsackPolicy())
    return sim, orchestrator, broker


def enqueue(broker, **kwargs):
    request = make_request(**kwargs)
    broker.submit(request, ConstantProfile(request.sla.throughput_mbps, level=0.5))
    return request


class TestWindowing:
    def test_requests_queue_until_window(self, stack):
        sim, orchestrator, broker = stack
        enqueue(broker)
        enqueue(broker)
        assert broker.pending == 2
        assert orchestrator.ledger.admissions == 0
        sim.run_until(301.0)
        assert broker.pending == 0
        assert orchestrator.ledger.admissions == 2

    def test_flush_timer_armed_once(self, stack):
        sim, orchestrator, broker = stack
        enqueue(broker)
        enqueue(broker)
        sim.run_until(301.0)
        assert broker.windows_flushed == 1

    def test_second_window_after_first(self, stack):
        sim, orchestrator, broker = stack
        enqueue(broker, throughput_mbps=5.0)
        sim.run_until(301.0)
        enqueue(broker, throughput_mbps=5.0)
        sim.run_until(700.0)
        assert broker.windows_flushed == 2
        assert orchestrator.ledger.admissions == 2

    def test_manual_flush(self, stack):
        sim, orchestrator, broker = stack
        enqueue(broker)
        outcomes = broker.flush()
        assert len(outcomes) == 1
        assert outcomes[0].admitted

    def test_flush_empty_queue_noop(self, stack):
        _, _, broker = stack
        assert broker.flush() == []
        assert broker.windows_flushed == 0

    def test_bad_window_rejected(self, stack):
        _, orchestrator, _ = stack
        with pytest.raises(BrokerError):
            SliceBroker(orchestrator, window_s=0.0)


class TestBatchDecisions:
    def test_knapsack_broker_prefers_value(self, stack):
        """One window holding a cheap RAN-hog and two valuable slices:
        the broker must skip the hog — FCFS order would not."""
        sim, orchestrator, broker = stack
        hog = enqueue(broker, throughput_mbps=45.0, price=10.0)
        rich_a = enqueue(broker, throughput_mbps=30.0, price=100.0)
        rich_b = enqueue(broker, throughput_mbps=30.0, price=100.0)
        sim.run_until(301.0)
        states = {
            r.request_id: orchestrator.slice(
                r.request_id.replace("req-", "slice-")
            ).state
            for r in (hog, rich_a, rich_b)
        }
        assert states[rich_a.request_id] is not SliceState.REJECTED
        assert states[rich_b.request_id] is not SliceState.REJECTED

    def test_rejected_requests_booked(self, stack):
        sim, orchestrator, broker = stack
        enqueue(broker, throughput_mbps=500.0, price=1.0)  # cannot ever fit
        sim.run_until(301.0)
        assert orchestrator.ledger.rejections == 1

    def test_decisions_log_grows(self, stack):
        sim, orchestrator, broker = stack
        enqueue(broker)
        enqueue(broker)
        sim.run_until(301.0)
        assert len(broker.decisions) == 2

    def test_fcfs_broker_matches_online_order(self, testbed):
        """With an FCFS batch policy, the broker admits in queue order —
        same outcome as online submission."""
        sim = Simulator()
        orchestrator = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            streams=RandomStreams(seed=4),
        )
        orchestrator.start()
        broker = SliceBroker(orchestrator, window_s=60.0, policy=FcfsPolicy())
        for _ in range(3):
            enqueue(broker, throughput_mbps=40.0)
        sim.run_until(61.0)
        # Two 40 Mb/s slices fit (one per cell); the third is rejected.
        assert orchestrator.ledger.admissions == 2
        assert orchestrator.ledger.rejections == 1

    def test_broker_respects_advance_bookings(self, stack):
        """A windowed winner that would cannibalize a future booking is
        dropped at flush time (paper §2's 'upcoming requests')."""
        sim, orchestrator, broker = stack
        # Book most of the RAN for a future event.
        for _ in range(2):
            advance = make_request(throughput_mbps=40.0, duration_s=7_200.0)
            assert orchestrator.submit_advance(
                advance,
                ConstantProfile(40.0, level=0.5),
                start_time=1_200.0,
            ).admitted
        # A long walk-in overlapping the event window arrives via the broker.
        conflict = enqueue(broker, throughput_mbps=40.0, duration_s=7_200.0)
        sim.run_until(301.0)
        slice_id = conflict.request_id.replace("req-", "slice-")
        assert orchestrator.slice(slice_id).state is SliceState.REJECTED
        (rejected,) = [
            e for e in orchestrator.events.since(0)
            if e.event_type == "slice.rejected" and e.slice_id == slice_id
        ]
        assert "advance reservations" in rejected.data["reason"]

    def test_broker_revenue_at_least_online_fcfs(self, testbed):
        """On the adversarial pattern, the windowed knapsack broker books
        at least the revenue online FCFS books."""
        from repro.experiments.testbed import build_testbed

        def run(use_broker):
            tb = build_testbed()
            sim = Simulator()
            orch = Orchestrator(
                sim=sim,
                allocator=tb.allocator,
                plmn_pool=tb.plmn_pool,
                streams=RandomStreams(seed=4),
            )
            orch.start()
            requests = [
                make_request(throughput_mbps=45.0, price=10.0),
                make_request(throughput_mbps=45.0, price=10.0),
                make_request(throughput_mbps=30.0, price=100.0),
                make_request(throughput_mbps=30.0, price=100.0),
            ]
            if use_broker:
                broker = SliceBroker(orch, window_s=60.0, policy=KnapsackPolicy())
                for request in requests:
                    broker.submit(
                        request,
                        ConstantProfile(request.sla.throughput_mbps, level=0.5),
                    )
                sim.run_until(61.0)
            else:
                for request in requests:
                    orch.submit(
                        request,
                        ConstantProfile(request.sla.throughput_mbps, level=0.5),
                    )
            return orch.ledger.gross_revenue

        assert run(use_broker=True) >= run(use_broker=False)
