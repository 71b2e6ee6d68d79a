"""Tests for the transport domain controller."""

from __future__ import annotations

import pytest

from repro.transport.controller import TransportController, TransportError
from repro.transport.links import Link
from repro.transport.paths import PathRequest
from repro.transport.switch import OpenFlowSwitch
from repro.transport.topology import Topology
from tests.conftest import flows_of


@pytest.fixture
def controller():
    topo = Topology()
    topo.add_link(Link("a-sw", "a", "sw", capacity_mbps=100, delay_ms=1))
    topo.add_link(Link("sw-b", "sw", "b", capacity_mbps=100, delay_ms=1))
    topo.add_link(Link("a-b-slow", "a", "b", capacity_mbps=100, delay_ms=10))
    switch = OpenFlowSwitch("sw", n_ports=8)
    return TransportController(topo, switches=[switch])


def request(bw=10.0, delay=50.0):
    return PathRequest("a", "b", min_bandwidth_mbps=bw, max_delay_ms=delay)


class TestReserve:
    def test_reserves_every_link_and_programs_flows(self, controller):
        allocation = controller.reserve_path("s1", "00101", request())
        assert allocation.path.link_ids == ("a-sw", "sw-b")
        for lid in allocation.path.link_ids:
            assert controller.topology.link(lid).has("s1")
        flows = flows_of(controller._switches["sw"], "s1")
        assert len(flows) == 1
        assert flows[0].match.plmn_id == "00101"

    def test_duplicate_slice_rejected(self, controller):
        controller.reserve_path("s1", "00101", request())
        with pytest.raises(TransportError):
            controller.reserve_path("s1", "00101", request())

    def test_infeasible_raises(self, controller):
        with pytest.raises(TransportError):
            controller.reserve_path("s1", "00101", request(bw=500.0))

    def test_effective_fraction_shrinks_commitment(self, controller):
        allocation = controller.reserve_path(
            "s1", "00101", request(bw=40.0), effective_fraction=0.5
        )
        assert allocation.effective_mbps == pytest.approx(20.0)
        assert allocation.nominal_mbps == pytest.approx(40.0)
        link = controller.topology.link("a-sw")
        assert link.residual_mbps == pytest.approx(80.0)

    def test_capacity_consumed_forces_reroute(self, controller):
        controller.reserve_path("s1", "00101", request(bw=95.0))
        allocation = controller.reserve_path("s2", "00102", request(bw=50.0))
        assert allocation.path.link_ids == ("a-b-slow",)

    def test_bad_fraction_rejected(self, controller):
        with pytest.raises(TransportError):
            controller.reserve_path("s1", "00101", request(), effective_fraction=1.5)


class TestReleaseResize:
    def test_release_frees_links_and_flows(self, controller):
        controller.reserve_path("s1", "00101", request(bw=40.0))
        controller.release_path("s1")
        assert controller.allocation_of("s1") is None
        assert controller.topology.link("a-sw").residual_mbps == pytest.approx(100.0)
        assert flows_of(controller._switches["sw"], "s1") == []

    def test_release_unknown_rejected(self, controller):
        with pytest.raises(TransportError):
            controller.release_path("ghost")

    def test_resize(self, controller):
        controller.reserve_path("s1", "00101", request(bw=40.0))
        controller.modify_bandwidth("s1", 40.0, 0.25)
        assert controller.allocation_of("s1").nominal_mbps == pytest.approx(40.0)
        assert controller.allocation_of("s1").effective_mbps == pytest.approx(10.0)
        assert controller.topology.link("a-sw").residual_mbps == pytest.approx(90.0)

    def test_resize_unknown_rejected(self, controller):
        with pytest.raises(TransportError):
            controller.modify_bandwidth("ghost", 5.0, 1.0)


class TestQueries:
    def test_feasible(self, controller):
        assert controller.feasible(request())
        assert not controller.feasible(request(bw=500.0))

    def test_utilization(self, controller):
        controller.reserve_path("s1", "00101", request(bw=40.0))
        snap = controller.utilization()
        assert snap["domain"] == "transport"
        assert snap["active_paths"] == 1
        assert snap["effective_reserved_mbps"] == pytest.approx(80.0)  # 2 links × 40


class TestProbeMatchesReserve:
    """``feasible(r)`` and ``reserve_path(.., r)`` ask one function, so the
    probe says yes exactly when the reservation then succeeds — and
    while the shortest route has room, neither searches."""

    @staticmethod
    def _reserves(controller, slice_id, plmn_id, path_request):
        try:
            return controller.reserve_path(slice_id, plmn_id, path_request).path
        except TransportError:
            return None

    def test_through_the_uwave_spill_to_full(self, testbed, path_searches):
        """D5b's shape: 300 Mb/s slices fill mmWave (1 000), spill to
        µwave (400), then nothing fits."""
        controller = testbed.transport
        first_links = []
        for index in range(6):
            wanted = PathRequest("enb1-agg", "edge-dc-gw", 300.0, 10.0)
            verdict = controller.feasible(wanted)
            path = self._reserves(controller, f"s{index}", f"001{index:02d}", wanted)
            assert verdict == (path is not None)
            first_links.append(path.link_ids[0] if path else None)
        assert first_links == ["enb1-mmwave-fwd"] * 3 + ["enb1-uwave-fwd"] + [None] * 2
        # One fill; then a pruned search per probe and per reserve only
        # once mmWave no longer fits (the 4th, 5th and 6th rounds).
        assert [floor for _, _, floor in path_searches] == [float("-inf")] + [300.0] * 6

    def test_under_a_urllc_budget_that_rules_the_core_out(self, testbed, path_searches):
        controller = testbed.transport
        tight_core = PathRequest("enb1-agg", "core-dc-gw", 10.0, 2.0)  # 6.5 ms away
        tight_edge = PathRequest("enb1-agg", "edge-dc-gw", 10.0, 2.0)  # 1.5 ms away
        assert not controller.feasible(tight_core)
        assert self._reserves(controller, "c", "00101", tight_core) is None
        assert controller.feasible(tight_edge)
        assert self._reserves(controller, "e", "00102", tight_edge).delay_ms == 1.5
        assert len(path_searches) == 2  # one fill per gateway
        # mmWave full: µwave is 2.5 ms to the edge, over the budget.
        controller.topology.link("enb1-mmwave-fwd").reserve("hog", 985.0, 985.0)
        assert not controller.feasible(tight_edge)
        assert self._reserves(controller, "e2", "00103", tight_edge) is None
        with pytest.raises(TransportError, match=r"has delay 2\.50 ms > bound 2\.00 ms"):
            controller.reserve_path("e2", "00103", tight_edge)
