"""Tests for Heat-style stack orchestration."""

from __future__ import annotations

import pytest

from repro.cloud.datacenter import CloudError, ComputeNode, Datacenter, DatacenterTier
from repro.cloud.flavors import FLAVORS
from repro.cloud.heat import HeatStack, HeatTemplate, StackResource, StackState
from repro.cloud.placement import BestFitPlacement


def template(n: int = 2):
    return HeatTemplate(
        name="t",
        resources=tuple(
            StackResource(f"vm{i}", FLAVORS["m1.medium"]) for i in range(n)
        ),
    )


def datacenter(vcpus: int = 8):
    return Datacenter(
        "dc", DatacenterTier.EDGE, nodes=[ComputeNode("n1", vcpus=vcpus)]
    )


def test_template_aggregates():
    t = template(3)
    assert t.total_vcpus == 6


def test_empty_template_rejected():
    with pytest.raises(CloudError):
        HeatTemplate(name="empty", resources=())


def test_create_boots_all_vms():
    stack = HeatStack(template(2), datacenter())
    stack.create(BestFitPlacement())
    assert stack.state is StackState.CREATE_COMPLETE
    assert len(stack.vms) == 2
    assert stack.vms["vm0"].node_id == "n1"


def test_create_failure_is_atomic():
    dc = datacenter(vcpus=3)  # template needs 4
    stack = HeatStack(template(2), dc)
    with pytest.raises(CloudError):
        stack.create(BestFitPlacement())
    assert stack.state is StackState.CREATE_FAILED
    assert dc.free_vcpus == 3


def test_double_create_rejected():
    stack = HeatStack(template(1), datacenter())
    stack.create(BestFitPlacement())
    with pytest.raises(CloudError):
        stack.create(BestFitPlacement())


def test_delete_reclaims_resources():
    dc = datacenter()
    stack = HeatStack(template(2), dc)
    stack.create(BestFitPlacement())
    stack.delete()
    assert stack.state is StackState.DELETE_COMPLETE
    assert dc.free_vcpus == 8


def test_delete_is_idempotent():
    stack = HeatStack(template(1), datacenter())
    stack.create(BestFitPlacement())
    stack.delete()
    stack.delete()


def test_stack_ids_unique():
    a = HeatStack(template(1), datacenter())
    b = HeatStack(template(1), datacenter())
    assert a.stack_id != b.stack_id


def test_owner_prefix_on_vm_names():
    stack = HeatStack(template(1), datacenter(), owner="slice-42")
    stack.create(BestFitPlacement())
    assert stack.vms["vm0"].name.startswith("slice-42")
