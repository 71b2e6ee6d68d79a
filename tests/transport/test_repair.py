"""Tests for transport path self-healing."""

from __future__ import annotations

import pytest

from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.transport.controller import TransportError
from repro.transport.paths import PathRequest
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request


@pytest.fixture
def reserved(testbed):
    """A slice path reserved over the mmWave uplink."""
    controller = testbed.transport
    allocation = controller.reserve_path(
        "s1",
        "00101",
        PathRequest("enb1-agg", "edge-dc-gw", min_bandwidth_mbps=50.0, max_delay_ms=10.0),
    )
    assert allocation.path.link_ids[0] == "enb1-mmwave-fwd"
    return testbed, controller, allocation


class TestRepairPath:
    def test_healthy_path_noop(self, reserved):
        _, controller, allocation = reserved
        assert controller.path_healthy("s1")
        repaired = controller.repair_path("s1")
        assert repaired.path.link_ids == allocation.path.link_ids
        assert controller.repairs_performed == 0

    def test_reroutes_around_failed_link(self, reserved):
        testbed, controller, _ = reserved
        testbed.transport.topology.link("enb1-mmwave-fwd").fail()
        assert not controller.path_healthy("s1")
        repaired = controller.repair_path("s1")
        assert repaired.path.link_ids[0] == "enb1-uwave-fwd"
        assert controller.repairs_performed == 1
        # Reservations moved: old link free of s1, new link holds it.
        assert not testbed.transport.topology.link("enb1-mmwave-fwd").has("s1")
        assert testbed.transport.topology.link("enb1-uwave-fwd").has("s1")

    def test_flows_reprogrammed(self, reserved):
        testbed, controller, _ = reserved
        testbed.transport.topology.link("enb1-mmwave-fwd").fail()
        controller.repair_path("s1")
        flows = testbed.switch.flows_of("s1")
        assert len(flows) == 1
        assert flows[0].match.plmn_id == "00101"

    def test_no_detour_raises_and_preserves_surviving_reservations(self, reserved):
        testbed, controller, _ = reserved
        testbed.transport.topology.link("enb1-mmwave-fwd").fail()
        testbed.transport.topology.link("enb1-uwave-fwd").fail()
        with pytest.raises(TransportError):
            controller.repair_path("s1")
        # Surviving link (switch->edge) still carries the reservation.
        assert testbed.transport.topology.link("switch-edge-fwd").has("s1")

    def test_reconciliation_after_link_recovery(self, reserved):
        testbed, controller, _ = reserved
        topo = testbed.transport.topology
        topo.link("enb1-mmwave-fwd").fail()
        topo.link("enb1-uwave-fwd").fail()
        with pytest.raises(TransportError):
            controller.repair_path("s1")
        topo.link("enb1-mmwave-fwd").restore()
        repaired = controller.repair_path("s1")  # healthy again → reconcile
        assert topo.link("enb1-mmwave-fwd").has("s1")
        assert repaired.effective_mbps == pytest.approx(50.0)

    def test_repair_unknown_slice_rejected(self, testbed):
        with pytest.raises(TransportError):
            testbed.transport.repair_path("ghost")

    def test_repair_respects_delay_bound(self, testbed):
        """A 2 ms-bound path over mmWave cannot detour via 2.5 ms µwave."""
        controller = testbed.transport
        controller.reserve_path(
            "tight",
            "00102",
            PathRequest("enb1-agg", "edge-dc-gw", min_bandwidth_mbps=10.0, max_delay_ms=2.0),
        )
        testbed.transport.topology.link("enb1-mmwave-fwd").fail()
        with pytest.raises(TransportError):
            controller.repair_path("tight")


class TestOrchestratorSelfHealing:
    def _orchestrator(self, testbed, self_healing=True):
        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            config=OrchestratorConfig(self_healing=self_healing),
            streams=RandomStreams(seed=6),
        )
        orch.start()
        return sim, orch

    def test_slice_rerouted_within_one_epoch(self, testbed):
        sim, orch = self._orchestrator(testbed)
        request = make_request(throughput_mbps=15.0, duration_s=3_600.0)
        orch.submit(request, ConstantProfile(15.0, level=0.6, noise_std=0.0))
        sim.run_until(120.0)
        slice_id = request.request_id.replace("req-", "slice-")
        first_link = orch.slice(slice_id).allocation.transport.path.link_ids[0]
        testbed.transport.topology.link(first_link).fail()
        sim.run_until(300.0)
        new_path = orch.slice(slice_id).allocation.transport.path.link_ids
        assert first_link not in new_path
        assert testbed.transport.repairs_performed == 1
        # Service continued: no lasting violations after the repair epoch.
        assert orch.slice(slice_id).violation_ratio() < 0.5

    def test_without_self_healing_violations_accrue(self, testbed):
        sim, orch = self._orchestrator(testbed, self_healing=False)
        request = make_request(throughput_mbps=15.0, duration_s=3_600.0)
        orch.submit(request, ConstantProfile(15.0, level=0.6, noise_std=0.0))
        sim.run_until(120.0)
        slice_id = request.request_id.replace("req-", "slice-")
        first_link = orch.slice(slice_id).allocation.transport.path.link_ids[0]
        testbed.transport.topology.link(first_link).fail()
        sim.run_until(1_200.0)
        assert orch.slice(slice_id).violation_ratio() > 0.5
        assert orch.ledger.total_penalties > 0.0
