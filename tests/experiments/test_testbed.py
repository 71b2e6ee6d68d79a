"""Tests for the canonical testbed builder."""

from __future__ import annotations


from repro.cloud.datacenter import DatacenterTier
from repro.experiments.testbed import TestbedConfig, build_testbed
from tests.conftest import free_prbs


def test_default_layout(testbed):
    assert len(testbed.enbs) == 2
    assert free_prbs(testbed.ran) == {"enb1": 100, "enb2": 100}
    tiers = {dc.tier for dc in testbed.cloud.datacenters()}
    assert tiers == {DatacenterTier.EDGE, DatacenterTier.CORE}


def test_parallel_wireless_links(testbed):
    links = testbed.transport.topology.out_links("enb1-agg")
    kinds = sorted(l.kind.value for l in links)
    assert kinds == ["microwave", "mmwave"]


def test_core_is_farther_than_edge(testbed):
    from repro.transport.paths import PathRequest, constrained_shortest_path

    edge = constrained_shortest_path(
        testbed.transport.topology,
        PathRequest("enb1-agg", "edge-dc-gw", min_bandwidth_mbps=1, max_delay_ms=100),
    )
    core = constrained_shortest_path(
        testbed.transport.topology,
        PathRequest("enb1-agg", "core-dc-gw", min_bandwidth_mbps=1, max_delay_ms=100),
    )
    assert core.delay_ms > edge.delay_ms


def test_core_has_more_compute(testbed):
    edge = testbed.cloud.datacenter("edge-dc")
    core = testbed.cloud.datacenter("core-dc")
    assert core.total_vcpus > edge.total_vcpus


def test_scaled_config():
    testbed = build_testbed(TestbedConfig(n_enbs=4, plmn_pool_size=24))
    assert len(testbed.enbs) == 4
    assert testbed.plmn_pool.capacity == 24
    # Every eNB has both wireless uplinks.
    for enb in testbed.enbs:
        assert len(testbed.transport.topology.out_links(enb.transport_node)) == 2


def test_switch_registered(testbed):
    assert testbed.transport._switches["of-switch"] is testbed.switch
