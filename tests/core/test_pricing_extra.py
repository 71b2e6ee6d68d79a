"""Tests for congestion pricing, refunds and early termination."""

from __future__ import annotations

import pytest

from repro.core.orchestrator import Orchestrator, OrchestratorError
from repro.core.pricing import LedgerError, RevenueLedger
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request


class TestRefunds:
    def test_refund_reduces_price_and_net(self):
        ledger = RevenueLedger()
        ledger.book_admission("s1", make_request(price=100.0))
        ledger.book_refund("s1", 40.0)
        assert ledger.gross_revenue == pytest.approx(60.0)
        assert ledger.net_revenue == pytest.approx(60.0)

    def test_refund_beyond_price_rejected(self):
        ledger = RevenueLedger()
        ledger.book_admission("s1", make_request(price=100.0))
        with pytest.raises(LedgerError):
            ledger.book_refund("s1", 150.0)

    def test_refund_unknown_slice_rejected(self):
        with pytest.raises(LedgerError):
            RevenueLedger().book_refund("ghost", 1.0)

    def test_negative_refund_rejected(self):
        ledger = RevenueLedger()
        ledger.book_admission("s1", make_request())
        with pytest.raises(LedgerError):
            ledger.book_refund("s1", -1.0)


class TestEarlyTermination:
    @pytest.fixture
    def orch(self, testbed):
        sim = Simulator()
        orchestrator = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            streams=RandomStreams(seed=21),
        )
        orchestrator.start()
        return sim, orchestrator

    def test_pro_rata_refund(self, orch):
        sim, orchestrator = orch
        request = make_request(duration_s=1_000.0, price=100.0)
        orchestrator.submit(request, ConstantProfile(20.0, level=0.5))
        slice_id = request.request_id.replace("req-", "slice-")
        sim.run_until(3.0 + 250.0)  # deploy 3 s + a quarter of the life
        refund = orchestrator.terminate_early(slice_id)
        assert refund == pytest.approx(75.0, rel=0.05)
        assert orchestrator.ledger.gross_revenue == pytest.approx(25.0, rel=0.2)
        # Resources reclaimed immediately.
        assert orchestrator.plmn_pool.available == orchestrator.plmn_pool.capacity

    def test_no_refund_option(self, orch):
        sim, orchestrator = orch
        request = make_request(duration_s=1_000.0, price=100.0)
        orchestrator.submit(request, ConstantProfile(20.0, level=0.5))
        slice_id = request.request_id.replace("req-", "slice-")
        sim.run_until(100.0)
        assert orchestrator.terminate_early(slice_id, refund=False) == 0.0
        assert orchestrator.ledger.gross_revenue == 100.0

    def test_terminate_inactive_rejected(self, orch):
        sim, orchestrator = orch
        request = make_request()
        orchestrator.submit(request, ConstantProfile(20.0, level=0.5))
        slice_id = request.request_id.replace("req-", "slice-")
        with pytest.raises(OrchestratorError):
            orchestrator.terminate_early(slice_id)  # still DEPLOYING

    def test_delete_route_reports_refund(self, orch):
        from repro.api import build_orchestrator_api

        sim, orchestrator = orch
        api = build_orchestrator_api(orchestrator)
        request = make_request(duration_s=1_000.0, price=100.0)
        orchestrator.submit(request, ConstantProfile(20.0, level=0.5))
        slice_id = request.request_id.replace("req-", "slice-")
        sim.run_until(503.0)
        response = api.delete(f"/v1/slices/{slice_id}")
        assert response.ok
        assert response.body["refund"] == pytest.approx(50.0, rel=0.05)
