"""Compute nodes, VMs and datacenters.

Two tiers mirror the demo testbed: a small EDGE datacenter co-located
with the access network (low added latency, scarce capacity) and a large
CORE datacenter behind extra transport hops.  The latency-vs-capacity
tension between the tiers is what makes DC selection a real decision in
the multi-domain allocator.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional

from repro.cloud.flavors import Flavor


class CloudError(RuntimeError):
    """Raised on compute-capacity or lifecycle violations."""


class VmState(enum.Enum):
    """Nova-ish VM lifecycle."""

    BUILDING = "building"
    ACTIVE = "active"
    DELETED = "deleted"
    ERROR = "error"


_vm_counter = itertools.count(1)


class VirtualMachine:
    """A placed VM instance."""

    def __init__(self, name: str, flavor: Flavor, owner: str = "") -> None:
        self.vm_id = f"vm-{next(_vm_counter):06d}"
        self.name = name
        self.flavor = flavor
        self.owner = owner  # slice or stack that created the VM
        self.state = VmState.BUILDING
        self.node_id: Optional[str] = None

    def activate(self) -> None:
        """BUILDING → ACTIVE (boot complete)."""
        if self.state is not VmState.BUILDING:
            raise CloudError(f"cannot activate VM in state {self.state.value}")
        self.state = VmState.ACTIVE

    def delete(self) -> None:
        """Terminal delete."""
        self.state = VmState.DELETED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VM({self.vm_id}, {self.name}, {self.flavor.name}, {self.state.value})"


class ComputeNode:
    """One hypervisor with fixed vCPU/RAM/disk capacity."""

    def __init__(
        self,
        node_id: str,
        vcpus: int = 32,
        ram_gb: float = 128.0,
        disk_gb: float = 1_000.0,
    ) -> None:
        if vcpus <= 0 or ram_gb <= 0 or disk_gb <= 0:
            raise CloudError("node capacities must be positive")
        self.node_id = node_id
        self.total_vcpus = int(vcpus)
        self.total_ram_gb = float(ram_gb)
        self.total_disk_gb = float(disk_gb)
        self._vms: Dict[str, VirtualMachine] = {}
        # Running usage totals maintained by boot/destroy so the
        # accounting properties below are O(1) instead of O(#VMs);
        # ``check_invariants`` recomputes and cross-checks them.  Float
        # totals reset to exact zero whenever the node empties so drift
        # cannot accumulate across VM churn.
        self._used_vcpus = 0
        self._used_ram_gb = 0.0
        self._used_disk_gb = 0.0
        #: Invoked with (Δvcpus, Δram, Δdisk) after boot/destroy; the
        #: owning Datacenter hooks this to keep its aggregates O(1).
        self.on_change: Optional[Callable[[int, float, float], None]] = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def used_vcpus(self) -> int:
        """vCPUs consumed by non-deleted VMs."""
        return self._used_vcpus

    @property
    def used_ram_gb(self) -> float:
        """RAM consumed by non-deleted VMs."""
        return self._used_ram_gb

    @property
    def used_disk_gb(self) -> float:
        """Disk consumed by non-deleted VMs."""
        return self._used_disk_gb

    @property
    def free_vcpus(self) -> int:
        """Uncommitted vCPUs."""
        return self.total_vcpus - self.used_vcpus

    @property
    def free_ram_gb(self) -> float:
        """Uncommitted RAM."""
        return self.total_ram_gb - self.used_ram_gb

    @property
    def free_disk_gb(self) -> float:
        """Uncommitted disk."""
        return self.total_disk_gb - self.used_disk_gb

    def can_host(self, flavor: Flavor) -> bool:
        """Whether the flavor fits in current free resources."""
        return flavor.fits_within(self.free_vcpus, self.free_ram_gb, self.free_disk_gb)

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------
    def boot(self, vm: VirtualMachine) -> None:
        """Place and activate a VM on this node.

        Raises:
            CloudError: If capacity is insufficient.
        """
        if not self.can_host(vm.flavor):
            raise CloudError(
                f"node {self.node_id} cannot host {vm.flavor.name} "
                f"(free: {self.free_vcpus} vCPU, {self.free_ram_gb:.1f} GiB RAM)"
            )
        vm.node_id = self.node_id
        self._vms[vm.vm_id] = vm
        vm.activate()
        flavor = vm.flavor
        self._used_vcpus += flavor.vcpus
        self._used_ram_gb += flavor.ram_gb
        self._used_disk_gb += flavor.disk_gb
        if self.on_change is not None:
            self.on_change(flavor.vcpus, flavor.ram_gb, flavor.disk_gb)

    def destroy(self, vm_id: str) -> None:
        """Delete a VM and reclaim its resources.

        Raises:
            CloudError: If the VM is not on this node.
        """
        vm = self._vms.pop(vm_id, None)
        if vm is None:
            raise CloudError(f"VM {vm_id} not on node {self.node_id}")
        vm.delete()
        flavor = vm.flavor
        self._used_vcpus -= flavor.vcpus
        self._used_ram_gb -= flavor.ram_gb
        self._used_disk_gb -= flavor.disk_gb
        if not self._vms:
            self._used_ram_gb = 0.0
            self._used_disk_gb = 0.0
        if self.on_change is not None:
            self.on_change(-flavor.vcpus, -flavor.ram_gb, -flavor.disk_gb)

    def vms(self) -> List[VirtualMachine]:
        """VMs currently accounted on this node."""
        return list(self._vms.values())

    def check_invariants(self) -> None:
        """Assert capacity invariants (used by property tests).

        Also recomputes the delta-maintained usage totals from the VM
        table and fails if they drifted from ground truth.
        """
        vcpus = sum(
            vm.flavor.vcpus for vm in self._vms.values() if vm.state is not VmState.DELETED
        )
        ram = sum(
            vm.flavor.ram_gb for vm in self._vms.values() if vm.state is not VmState.DELETED
        )
        disk = sum(
            vm.flavor.disk_gb for vm in self._vms.values() if vm.state is not VmState.DELETED
        )
        if (
            vcpus != self._used_vcpus
            or abs(ram - self._used_ram_gb) > 1e-6
            or abs(disk - self._used_disk_gb) > 1e-6
        ):
            raise CloudError(
                f"{self.node_id}: running usage totals "
                f"({self._used_vcpus} vCPU, {self._used_ram_gb} GiB RAM, "
                f"{self._used_disk_gb} GiB disk) drifted from recomputed "
                f"({vcpus} vCPU, {ram} GiB RAM, {disk} GiB disk)"
            )
        if self.used_vcpus > self.total_vcpus:
            raise CloudError(f"{self.node_id}: vCPU overcommit")
        if self.used_ram_gb > self.total_ram_gb + 1e-9:
            raise CloudError(f"{self.node_id}: RAM overcommit")
        if self.used_disk_gb > self.total_disk_gb + 1e-9:
            raise CloudError(f"{self.node_id}: disk overcommit")


class DatacenterTier(enum.Enum):
    """Edge (near RAN, scarce) vs. core (far, plentiful)."""

    EDGE = "edge"
    CORE = "core"


class Datacenter:
    """A named pool of compute nodes at one network location.

    Attributes:
        dc_id: Identifier.
        tier: EDGE or CORE.
        gateway_node: Transport-graph node where this DC attaches.
        processing_delay_ms: Added user-plane latency of services hosted
            here (virtualization + DC fabric), used in the latency budget.
    """

    def __init__(
        self,
        dc_id: str,
        tier: DatacenterTier,
        nodes: List[ComputeNode],
        gateway_node: Optional[str] = None,
        processing_delay_ms: float = 1.0,
    ) -> None:
        if not nodes:
            raise CloudError(f"datacenter {dc_id} needs at least one node")
        if processing_delay_ms < 0:
            raise CloudError("processing delay cannot be negative")
        self.dc_id = dc_id
        self.tier = tier
        self.gateway_node = gateway_node or f"{dc_id}-gw"
        self.processing_delay_ms = float(processing_delay_ms)
        self._nodes: Dict[str, ComputeNode] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise CloudError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
        # DC-level aggregates maintained from node boot/destroy deltas
        # so the fleet-wide capacity queries are O(1) per DC instead of
        # O(#nodes); the node inventory is fixed after construction.
        self._total_vcpus = sum(n.total_vcpus for n in self._nodes.values())
        self._free_vcpus = sum(n.free_vcpus for n in self._nodes.values())
        self._free_ram_gb = sum(n.free_ram_gb for n in self._nodes.values())
        # Delta-maintained best-fit index: nodes sorted by
        # (free_vcpus, free_ram_gb, node_id) — exactly the key
        # BestFitPlacement minimizes over — so a placement query walks
        # forward from the first node with enough vCPUs instead of
        # scanning the whole inventory per VM.
        self._fit_index: List[tuple] = []
        self._fit_entry: Dict[str, tuple] = {}
        for node in self._nodes.values():
            entry = (node.free_vcpus, node.free_ram_gb, node.node_id)
            insort(self._fit_index, entry)
            self._fit_entry[node.node_id] = entry
            node.on_change = (
                lambda dv, dr, dd, node_id=node.node_id: self._node_changed(
                    node_id, dv, dr, dd
                )
            )

    def _node_changed(
        self, node_id: str, d_vcpus: int, d_ram_gb: float, d_disk_gb: float
    ) -> None:
        self._free_vcpus -= d_vcpus
        self._free_ram_gb -= d_ram_gb
        node = self._nodes[node_id]
        old = self._fit_entry[node_id]
        entry = (node.free_vcpus, node.free_ram_gb, node_id)
        if entry == old:
            return
        self._fit_index.pop(bisect_left(self._fit_index, old))
        insort(self._fit_index, entry)
        self._fit_entry[node_id] = entry

    def best_fit_node(self, flavor: Flavor) -> Optional[ComputeNode]:
        """Least-free node that can host ``flavor`` (best-fit order).

        Walks the sorted index forward from the first node with enough
        free vCPUs; the first node whose RAM/disk also fit is exactly
        ``min(fitting, key=(free_vcpus, free_ram_gb, node_id))`` — the
        node :class:`~repro.cloud.placement.BestFitPlacement` picks.
        Returns None when nothing fits.
        """
        start = bisect_left(self._fit_index, (flavor.vcpus,))
        for free_vcpus, _free_ram, node_id in self._fit_index[start:]:
            node = self._nodes[node_id]
            if node.can_host(flavor):
                return node
        return None

    def verify_fit_index(self) -> None:
        """Cross-check the best-fit index against a recompute.

        Raises:
            CloudError: If any entry, the sort order, or the DC-level
                aggregates drifted from ground truth (property tests
                call this after randomized boot/destroy schedules).
        """
        if sorted(self._fit_index) != self._fit_index:
            raise CloudError(f"{self.dc_id}: best-fit index out of order")
        if len(self._fit_index) != len(self._nodes):
            raise CloudError(f"{self.dc_id}: best-fit index size drifted")
        for node_id, node in self._nodes.items():
            expected = (node.free_vcpus, node.free_ram_gb, node_id)
            if self._fit_entry.get(node_id) != expected:
                raise CloudError(
                    f"{self.dc_id}: index entry for {node_id} is "
                    f"{self._fit_entry.get(node_id)}, expected {expected}"
                )
        if self._free_vcpus != sum(n.free_vcpus for n in self._nodes.values()):
            raise CloudError(f"{self.dc_id}: free-vCPU aggregate drifted")
        if (
            abs(self._free_ram_gb - sum(n.free_ram_gb for n in self._nodes.values()))
            > 1e-6
        ):
            raise CloudError(f"{self.dc_id}: free-RAM aggregate drifted")

    def nodes(self) -> List[ComputeNode]:
        """All hypervisors in this DC."""
        return list(self._nodes.values())

    def node(self, node_id: str) -> ComputeNode:
        """Lookup a hypervisor."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise CloudError(f"unknown node {node_id} in {self.dc_id}") from None

    @property
    def total_vcpus(self) -> int:
        """Aggregate vCPU capacity."""
        return self._total_vcpus

    @property
    def free_vcpus(self) -> int:
        """Aggregate free vCPUs."""
        return self._free_vcpus

    @property
    def free_ram_gb(self) -> float:
        """Aggregate free RAM."""
        return self._free_ram_gb

    def can_host_flavors(self, flavors: List[Flavor]) -> bool:
        """Whether the flavor list fits via first-fit-decreasing (no state change)."""
        if not flavors:
            return True
        need_vcpus = sum(f.vcpus for f in flavors)
        # Exact negative fast path: vCPUs are integers (no epsilon in
        # ``fits_within``), so FFD cannot place more than the aggregate.
        if need_vcpus > self._free_vcpus:
            return False
        # O(1) positive fast path: if the roomiest node alone hosts the
        # whole set, FFD provably succeeds — at every step the flavors
        # not yet placed on that node still fit in its remaining free
        # space, so no flavor can fail to place.
        if self._fit_index:
            roomiest = self._nodes[self._fit_index[-1][2]]
            if (
                need_vcpus <= roomiest.free_vcpus
                and sum(f.ram_gb for f in flavors) <= roomiest.free_ram_gb
                and sum(f.disk_gb for f in flavors) <= roomiest.free_disk_gb
            ):
                return True
        free = [
            [n.free_vcpus, n.free_ram_gb, n.free_disk_gb] for n in self._nodes.values()
        ]
        for flv in sorted(flavors, key=lambda f: f.vcpus, reverse=True):
            placed = False
            for slot in free:
                if flv.fits_within(slot[0], slot[1], slot[2]):
                    slot[0] -= flv.vcpus
                    slot[1] -= flv.ram_gb
                    slot[2] -= flv.disk_gb
                    placed = True
                    break
            if not placed:
                return False
        return True

    def utilization(self) -> dict:
        """Telemetry snapshot for the cloud controller."""
        return {
            "dc_id": self.dc_id,
            "tier": self.tier.value,
            "total_vcpus": self.total_vcpus,
            "free_vcpus": self.free_vcpus,
            "free_ram_gb": self.free_ram_gb,
            "nodes": [
                {
                    "node_id": n.node_id,
                    "used_vcpus": n.used_vcpus,
                    "total_vcpus": n.total_vcpus,
                    "n_vms": len(n.vms()),
                }
                for n in self._nodes.values()
            ],
        }


__all__ = [
    "CloudError",
    "ComputeNode",
    "Datacenter",
    "DatacenterTier",
    "VirtualMachine",
    "VmState",
]
