"""Tests for VM placement policies."""

from __future__ import annotations

import pytest

from repro.cloud.datacenter import ComputeNode, VirtualMachine
from repro.cloud.flavors import FLAVORS
from repro.cloud.placement import (
    BestFitPlacement,
    FirstFitPlacement,
    PlacementError,
    WorstFitPlacement,
)


def nodes():
    """One half-full node and one empty node."""
    half = ComputeNode("half", vcpus=8)
    half.boot(VirtualMachine("pre", FLAVORS["m1.large"]))  # 4 vCPUs used
    empty = ComputeNode("empty", vcpus=8)
    return [half, empty]


def test_first_fit_takes_inventory_order():
    chosen = FirstFitPlacement().choose_node(nodes(), FLAVORS["m1.medium"])
    assert chosen.node_id == "half"


def test_best_fit_consolidates():
    chosen = BestFitPlacement().choose_node(nodes(), FLAVORS["m1.medium"])
    assert chosen.node_id == "half"


def test_worst_fit_spreads():
    chosen = WorstFitPlacement().choose_node(nodes(), FLAVORS["m1.medium"])
    assert chosen.node_id == "empty"


def test_none_when_nothing_fits():
    tiny = [ComputeNode("n1", vcpus=1, ram_gb=1.0, disk_gb=5.0)]
    assert BestFitPlacement().choose_node(tiny, FLAVORS["m1.xlarge"]) is None


def test_place_all_boots_everything():
    ns = nodes()
    vms = [VirtualMachine(f"vm{i}", FLAVORS["m1.medium"]) for i in range(4)]
    chosen = BestFitPlacement().place_all(ns, vms)
    assert len(chosen) == 4
    assert all(vm.node_id is not None for vm in vms)


def test_place_all_atomic_rollback():
    ns = [ComputeNode("n1", vcpus=4)]
    vms = [VirtualMachine(f"vm{i}", FLAVORS["m1.medium"]) for i in range(3)]  # needs 6
    with pytest.raises(PlacementError):
        BestFitPlacement().place_all(ns, vms)
    assert ns[0].used_vcpus == 0  # nothing leaked


def test_best_fit_fills_node_before_spilling():
    ns = nodes()
    policy = BestFitPlacement()
    placed = []
    for _ in range(3):
        vm = VirtualMachine("x", FLAVORS["m1.medium"])
        node = policy.choose_node(ns, vm.flavor)
        node.boot(vm)
        placed.append(node.node_id)
    assert placed == ["half", "half", "empty"]
