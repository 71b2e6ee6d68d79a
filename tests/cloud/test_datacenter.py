"""Tests for compute nodes, VMs and datacenters."""

from __future__ import annotations

import pytest

from repro.cloud.datacenter import (
    CloudError,
    ComputeNode,
    Datacenter,
    DatacenterTier,
    VirtualMachine,
    VmState,
)
from repro.cloud.flavors import FLAVORS, Flavor


class TestFlavors:
    def test_presets_exist(self):
        assert FLAVORS["m1.small"].vcpus == 1
        assert FLAVORS["m1.medium"].vcpus == 2

    def test_invalid_flavor_rejected(self):
        with pytest.raises(ValueError):
            Flavor("bad", vcpus=0, ram_gb=1, disk_gb=1)

    def test_fits_within(self):
        f = FLAVORS["m1.medium"]
        assert f.fits_within(2, 4.0, 40.0)
        assert not f.fits_within(1, 4.0, 40.0)


class TestVm:
    def test_lifecycle(self):
        vm = VirtualMachine("mme", FLAVORS["m1.small"])
        assert vm.state is VmState.BUILDING
        vm.activate()
        assert vm.state is VmState.ACTIVE
        vm.delete()
        assert vm.state is VmState.DELETED

    def test_double_activate_rejected(self):
        vm = VirtualMachine("mme", FLAVORS["m1.small"])
        vm.activate()
        with pytest.raises(CloudError):
            vm.activate()

    def test_vm_ids_unique(self):
        a = VirtualMachine("x", FLAVORS["m1.tiny"])
        b = VirtualMachine("x", FLAVORS["m1.tiny"])
        assert a.vm_id != b.vm_id


class TestComputeNode:
    def test_boot_accounts_resources(self):
        node = ComputeNode("n1", vcpus=4, ram_gb=8.0, disk_gb=100.0)
        vm = VirtualMachine("x", FLAVORS["m1.medium"])
        node.boot(vm)
        assert node.used_vcpus == 2
        assert node.free_vcpus == 2
        assert vm.state is VmState.ACTIVE
        assert vm.node_id == "n1"

    def test_boot_beyond_capacity_rejected(self):
        node = ComputeNode("n1", vcpus=1, ram_gb=1.0, disk_gb=10.0)
        with pytest.raises(CloudError):
            node.boot(VirtualMachine("x", FLAVORS["m1.medium"]))

    def test_destroy_reclaims(self):
        node = ComputeNode("n1", vcpus=4, ram_gb=8.0, disk_gb=100.0)
        vm = VirtualMachine("x", FLAVORS["m1.medium"])
        node.boot(vm)
        node.destroy(vm.vm_id)
        assert node.used_vcpus == 0
        assert vm.state is VmState.DELETED

    def test_destroy_unknown_rejected(self):
        with pytest.raises(CloudError):
            ComputeNode("n1").destroy("ghost")

    def test_invariants_hold(self):
        node = ComputeNode("n1", vcpus=4, ram_gb=8.0, disk_gb=100.0)
        node.boot(VirtualMachine("x", FLAVORS["m1.medium"]))
        node.check_invariants()

    def test_bad_capacity_rejected(self):
        with pytest.raises(CloudError):
            ComputeNode("n1", vcpus=0)


class TestDatacenter:
    def test_aggregates(self):
        dc = Datacenter(
            "dc1",
            DatacenterTier.EDGE,
            nodes=[ComputeNode("n1", vcpus=8), ComputeNode("n2", vcpus=8)],
        )
        assert dc.total_vcpus == 16
        assert dc.free_vcpus == 16

    def test_needs_nodes(self):
        with pytest.raises(CloudError):
            Datacenter("dc1", DatacenterTier.EDGE, nodes=[])

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(CloudError):
            Datacenter(
                "dc1",
                DatacenterTier.EDGE,
                nodes=[ComputeNode("n1"), ComputeNode("n1")],
            )

    def test_can_host_flavors_ffd(self):
        dc = Datacenter(
            "dc1",
            DatacenterTier.EDGE,
            nodes=[ComputeNode("n1", vcpus=4, ram_gb=8.0, disk_gb=200.0)],
        )
        assert dc.can_host_flavors([FLAVORS["m1.medium"], FLAVORS["m1.medium"]])
        assert not dc.can_host_flavors([FLAVORS["m1.medium"]] * 3)

    def test_can_host_does_not_mutate(self):
        dc = Datacenter("dc1", DatacenterTier.EDGE, nodes=[ComputeNode("n1", vcpus=4)])
        dc.can_host_flavors([FLAVORS["m1.medium"]])
        assert dc.free_vcpus == 4

    def test_unknown_node_rejected(self):
        dc = Datacenter("dc1", DatacenterTier.EDGE, nodes=[ComputeNode("n1")])
        with pytest.raises(CloudError):
            dc.node("ghost")

    def test_utilization_snapshot(self):
        dc = Datacenter("dc1", DatacenterTier.CORE, nodes=[ComputeNode("n1", vcpus=8)])
        snap = dc.utilization()
        assert snap["tier"] == "core"
        assert snap["total_vcpus"] == 8
