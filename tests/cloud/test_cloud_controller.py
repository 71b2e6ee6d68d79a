"""Tests for the cloud domain controller."""

from __future__ import annotations

import pytest

from repro.cloud.controller import CloudController
from repro.cloud.datacenter import CloudError, ComputeNode, Datacenter, DatacenterTier
from repro.cloud.flavors import FLAVORS
from repro.cloud.heat import HeatTemplate, StackResource


def make_controller(edge_vcpus: int = 8, core_vcpus: int = 32):
    edge = Datacenter(
        "edge", DatacenterTier.EDGE, nodes=[ComputeNode("e1", vcpus=edge_vcpus)]
    )
    core = Datacenter(
        "core", DatacenterTier.CORE, nodes=[ComputeNode("c1", vcpus=core_vcpus)]
    )
    return CloudController([edge, core])


def template(n: int = 2):
    return HeatTemplate(
        name="t",
        resources=tuple(StackResource(f"vm{i}", FLAVORS["m1.medium"]) for i in range(n)),
    )


def test_needs_datacenters():
    with pytest.raises(CloudError):
        CloudController([])


def test_duplicate_dc_rejected():
    dc = Datacenter("x", DatacenterTier.EDGE, nodes=[ComputeNode("n1")])
    dc2 = Datacenter("x", DatacenterTier.CORE, nodes=[ComputeNode("n2")])
    with pytest.raises(CloudError):
        CloudController([dc, dc2])


def test_tier_filter():
    controller = make_controller()
    assert [dc.dc_id for dc in controller.datacenters(DatacenterTier.EDGE)] == ["edge"]


def test_deploy_and_teardown():
    controller = make_controller()
    allocation = controller.deploy("s1", template(2), "edge")
    assert allocation.dc_id == "edge"
    assert allocation.vcpus == 4
    assert controller.stack_of("s1") is not None
    controller.teardown("s1")
    assert controller.stack_of("s1") is None
    assert controller.datacenter("edge").free_vcpus == 8


def test_deploy_duplicate_rejected():
    controller = make_controller()
    controller.deploy("s1", template(1), "edge")
    with pytest.raises(CloudError):
        controller.deploy("s1", template(1), "core")


def test_deploy_without_capacity_rejected():
    controller = make_controller(edge_vcpus=2)
    with pytest.raises(CloudError):
        controller.deploy("s1", template(2), "edge")
    assert controller.stack_of("s1") is None


def test_teardown_unknown_rejected():
    with pytest.raises(CloudError):
        make_controller().teardown("ghost")


def test_unknown_dc_rejected():
    with pytest.raises(CloudError):
        make_controller().datacenter("ghost")


def test_utilization():
    controller = make_controller()
    controller.deploy("s1", template(1), "core")
    snap = controller.utilization()
    assert snap["domain"] == "cloud"
    assert snap["active_stacks"] == 1
    assert snap["total_vcpus"] == 40
    assert snap["free_vcpus"] == 38
