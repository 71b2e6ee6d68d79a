"""Heat-style stack orchestration.

The demo performs "dynamic configurations of computational resources
through Heat".  A :class:`HeatTemplate` declares a named group of VM
resources; launching it creates a :class:`HeatStack` whose lifecycle is
atomic: either every VM boots or none stays.  The orchestrator deploys
one stack per slice (its vEPC) and deletes it on slice expiry.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict

from repro.cloud.datacenter import CloudError, Datacenter, VirtualMachine
from repro.cloud.flavors import Flavor
from repro.cloud.placement import PlacementError, PlacementPolicy


class StackState(enum.Enum):
    """Heat stack lifecycle."""

    CREATE_IN_PROGRESS = "create_in_progress"
    CREATE_COMPLETE = "create_complete"
    CREATE_FAILED = "create_failed"
    DELETE_COMPLETE = "delete_complete"


@dataclass(frozen=True)
class StackResource:
    """One resource declaration inside a template (a VM to boot)."""

    name: str
    flavor: Flavor


@dataclass(frozen=True)
class HeatTemplate:
    """Declarative description of a stack.

    Attributes:
        name: Template name (e.g. ``"vEPC"``).
        resources: VM declarations to instantiate.
    """

    name: str
    resources: tuple

    def __post_init__(self) -> None:
        if not self.resources:
            raise CloudError(f"template {self.name} declares no resources")

    @property
    def total_vcpus(self) -> int:
        """Aggregate vCPUs the template needs."""
        return sum(r.flavor.vcpus for r in self.resources)


_stack_counter = itertools.count(1)


class HeatStack:
    """A launched instance of a template inside one datacenter."""

    def __init__(self, template: HeatTemplate, datacenter: Datacenter, owner: str = "") -> None:
        self.stack_id = f"stack-{next(_stack_counter):06d}"
        self.template = template
        self.datacenter = datacenter
        self.owner = owner
        self.state = StackState.CREATE_IN_PROGRESS
        self.vms: Dict[str, VirtualMachine] = {}

    def create(self, policy: PlacementPolicy) -> None:
        """Boot every declared VM atomically.

        Raises:
            CloudError: If capacity is insufficient (state →
                CREATE_FAILED, nothing placed).
        """
        if self.state is not StackState.CREATE_IN_PROGRESS:
            raise CloudError(f"stack {self.stack_id} already {self.state.value}")
        vms = [
            VirtualMachine(f"{self.owner or self.template.name}-{r.name}", r.flavor, owner=self.stack_id)
            for r in self.template.resources
        ]
        try:
            policy.place_all(self.datacenter.nodes(), vms, datacenter=self.datacenter)
        except PlacementError as exc:
            self.state = StackState.CREATE_FAILED
            raise CloudError(
                f"stack {self.stack_id} failed in {self.datacenter.dc_id}: {exc}"
            ) from exc
        # Keyed by *resource* name so callers address VMs as declared in
        # the template ("mme", "pgw", ...), not by the prefixed VM name.
        self.vms = {
            resource.name: vm
            for resource, vm in zip(self.template.resources, vms)
        }
        self.state = StackState.CREATE_COMPLETE

    def delete(self) -> None:
        """Destroy every VM of the stack (idempotent once deleted)."""
        if self.state is StackState.DELETE_COMPLETE:
            return
        for vm in self.vms.values():
            if vm.node_id is not None:
                self.datacenter.node(vm.node_id).destroy(vm.vm_id)
        self.state = StackState.DELETE_COMPLETE


__all__ = ["HeatStack", "HeatTemplate", "StackResource", "StackState"]
