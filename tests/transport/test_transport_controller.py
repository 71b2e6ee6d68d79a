"""Tests for the transport domain controller."""

from __future__ import annotations

import pytest

from repro.transport.controller import TransportController, TransportError
from repro.transport.links import Link
from repro.transport.paths import PathRequest
from repro.transport.switch import OpenFlowSwitch
from repro.transport.topology import Topology


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
        flows = controller.switch("sw").flows_of("s1")
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
        assert controller.switch("sw").flows_of("s1") == []

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

    def test_candidate_paths(self, controller):
        paths = controller.candidate_paths(request(), k=3)
        assert len(paths) == 2

    def test_unknown_switch_rejected(self, controller):
        with pytest.raises(TransportError):
            controller.switch("ghost")

    def test_utilization(self, controller):
        controller.reserve_path("s1", "00101", request(bw=40.0))
        snap = controller.utilization()
        assert snap["domain"] == "transport"
        assert snap["active_paths"] == 1
        assert snap["effective_reserved_mbps"] == pytest.approx(80.0)  # 2 links × 40
