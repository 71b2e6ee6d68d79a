"""Tests for the transport topology graph."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.transport.controller import TransportController
from repro.transport.links import Link, LinkKind
from repro.transport.paths import PathRequest
from repro.transport.topology import Topology, TopologyError


@pytest.fixture
def topo():
    t = Topology()
    t.add_link(Link("ab", "a", "b", capacity_mbps=100, delay_ms=1))
    t.add_link(Link("bc", "b", "c", capacity_mbps=50, delay_ms=2))
    return t


def test_nodes_auto_added(topo):
    assert topo.utilization()["nodes"] == ["a", "b", "c"]


def test_duplicate_link_rejected(topo):
    with pytest.raises(TopologyError):
        topo.add_link(Link("ab", "x", "y"))


def test_out_links(topo):
    assert [l.link_id for l in topo.out_links("a")] == ["ab"]
    assert topo.out_links("c") == []


def test_unknown_node_rejected(topo):
    with pytest.raises(TopologyError):
        topo.out_links("ghost")


def test_add_duplex_creates_pair(topo):
    fwd, rev = topo.add_duplex("cd", "c", "d", kind=LinkKind.FIBER)
    assert fwd.src == "c" and fwd.dst == "d"
    assert rev.src == "d" and rev.dst == "c"
    assert topo.link("cd-fwd") is fwd


def test_usable_out_links_filters(topo):
    topo.link("ab").reserve("s1", 60.0, 60.0)
    assert topo.usable_out_links("a", min_residual_mbps=50.0) == []
    assert len(topo.usable_out_links("a", min_residual_mbps=30.0)) == 1
    topo.link("ab").fail()
    assert topo.usable_out_links("a") == []


def test_path_metrics(topo):
    assert topo.path_delay_ms(["ab", "bc"]) == pytest.approx(3.0)
    assert topo.path_residual_mbps(["ab", "bc"]) == pytest.approx(50.0)
    assert topo.path_residual_mbps([]) == float("inf")


def test_validate_path(topo):
    topo.validate_path(["ab", "bc"], "a", "c")
    with pytest.raises(TopologyError):
        topo.validate_path(["bc", "ab"], "a", "c")
    with pytest.raises(TopologyError):
        topo.validate_path(["ab"], "a", "c")


def test_utilization_lists_everything(topo):
    snap = topo.utilization()
    assert snap["nodes"] == ["a", "b", "c"]
    assert len(snap["links"]) == 2


class TestDownSet:
    """``Topology.down_link_ids`` is maintained by the link-change hook;
    these schedules are its verifier."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add-up", "add-down", "fail", "restore", "reserve"]),
                st.integers(min_value=0, max_value=50),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_down_set_equals_a_recompute(self, schedule):
        topo = Topology()
        held = [  # direct references: mutations that never ask the topology
            Link("ab", "a", "b", capacity_mbps=100, delay_ms=1),
            Link("bc", "b", "c", capacity_mbps=100, delay_ms=1),
        ]
        for link in held:
            topo.add_link(link)
        controller = TransportController(topo)
        controller.reserve_path(
            "s1", "00101", PathRequest("a", "c", min_bandwidth_mbps=5.0, max_delay_ms=9.0)
        )
        path = controller.allocation_of("s1").path.link_ids
        assert path == ("ab", "bc") and controller.path_healthy("s1")
        for step, (op, pick, direct) in enumerate(schedule):
            if op.startswith("add"):
                link = Link(f"x{step}", "a", "c", capacity_mbps=10, delay_ms=50)
                if op == "add-down":
                    link.fail()
                topo.add_link(link)
                held.append(link)
            else:
                link = held[pick % len(held)]
                if not direct:
                    link = controller.topology.link(link.link_id)
                if op == "fail":
                    link.fail()
                elif op == "restore":
                    link.restore()
                elif link.has("probe"):
                    link.release("probe")
                elif link.up:
                    link.reserve("probe", 1.0, 1.0)
            assert topo.down_link_ids == {l.link_id for l in topo.links() if not l.up}
            assert controller.path_healthy("s1") == all(
                topo.link(lid).up for lid in path
            )
