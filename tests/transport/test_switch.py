"""Tests for the OpenFlow-style switch."""

from __future__ import annotations

import pytest

from repro.transport.switch import FlowEntry, FlowMatch, OpenFlowSwitch, SwitchError


@pytest.fixture
def switch():
    return OpenFlowSwitch("sw1", n_ports=8)


def out_ports(switch):
    """Output ports in table (priority) order."""
    return [flow["out_port"] for flow in switch.stats()["flows"]]


def test_priority_order(switch):
    switch.install(FlowEntry(FlowMatch(), out_port=1, priority=10))
    switch.install(FlowEntry(FlowMatch(plmn_id="00101"), out_port=2, priority=200))
    assert out_ports(switch) == [2, 1]


def test_specificity_breaks_priority_ties(switch):
    switch.install(FlowEntry(FlowMatch(), out_port=1, priority=100))
    switch.install(FlowEntry(FlowMatch(plmn_id="00101", in_port=2), out_port=5, priority=100))
    assert out_ports(switch) == [5, 1]


def test_duplicate_flow_rejected(switch):
    switch.install(FlowEntry(FlowMatch(plmn_id="00101"), out_port=1, priority=50))
    with pytest.raises(SwitchError):
        switch.install(FlowEntry(FlowMatch(plmn_id="00101"), out_port=2, priority=50))


def test_bad_ports_rejected(switch):
    with pytest.raises(SwitchError):
        switch.install(FlowEntry(FlowMatch(), out_port=8))
    with pytest.raises(SwitchError):
        switch.install(FlowEntry(FlowMatch(in_port=99), out_port=1))


def test_remove_slice_flows(switch):
    switch.install(FlowEntry(FlowMatch(plmn_id="00101"), out_port=1, slice_id="s1"))
    switch.install(FlowEntry(FlowMatch(plmn_id="00102"), out_port=2, slice_id="s2"))
    assert switch.remove_slice_flows("s1") == 1
    assert [flow["slice_id"] for flow in switch.stats()["flows"]] == ["s2"]


def test_stats_structure(switch):
    switch.install(FlowEntry(FlowMatch(plmn_id="00101"), out_port=1, slice_id="s1"))
    stats = switch.stats()
    assert stats["n_flows"] == 1
    assert stats["flows"][0]["slice_id"] == "s1"


def test_zero_ports_rejected():
    with pytest.raises(SwitchError):
        OpenFlowSwitch("bad", n_ports=0)
