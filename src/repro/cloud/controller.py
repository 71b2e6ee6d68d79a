"""Cloud domain controller.

Third hierarchical controller of Fig. 1.  Owns the edge and core
datacenters, answers placement feasibility queries, launches per-slice
Heat stacks (the vEPC) in the datacenter the multi-domain allocator
selected, and reports utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.datacenter import CloudError, Datacenter, DatacenterTier
from repro.cloud.heat import HeatStack, HeatTemplate
from repro.cloud.placement import BestFitPlacement, PlacementPolicy


@dataclass(frozen=True)
class CloudAllocation:
    """Result of deploying a slice's compute.

    Attributes:
        dc_id: Hosting datacenter.
        stack_id: The Heat stack instantiated for the slice.
        vcpus: Total vCPUs committed.
        processing_delay_ms: DC's user-plane latency contribution.
    """

    dc_id: str
    stack_id: str
    vcpus: int
    processing_delay_ms: float


class CloudController:
    """Controller for the edge + core datacenters."""

    def __init__(
        self,
        datacenters: List[Datacenter],
        placement: Optional[PlacementPolicy] = None,
    ) -> None:
        if not datacenters:
            raise CloudError("cloud controller needs at least one datacenter")
        self._dcs: Dict[str, Datacenter] = {}
        for dc in datacenters:
            if dc.dc_id in self._dcs:
                raise CloudError(f"duplicate datacenter id {dc.dc_id}")
            self._dcs[dc.dc_id] = dc
        self.placement = placement or BestFitPlacement()
        self._stacks: Dict[str, HeatStack] = {}  # slice_id -> stack

    # ------------------------------------------------------------------
    # Inventory / queries
    # ------------------------------------------------------------------
    def datacenter(self, dc_id: str) -> Datacenter:
        """Lookup a datacenter."""
        try:
            return self._dcs[dc_id]
        except KeyError:
            raise CloudError(f"unknown datacenter {dc_id}") from None

    def datacenters(self, tier: Optional[DatacenterTier] = None) -> List[Datacenter]:
        """All datacenters, optionally filtered by tier."""
        dcs = list(self._dcs.values())
        if tier is not None:
            dcs = [dc for dc in dcs if dc.tier is tier]
        return dcs

    def stack_of(self, slice_id: str) -> Optional[HeatStack]:
        """The slice's Heat stack (None if absent)."""
        return self._stacks.get(slice_id)

    # ------------------------------------------------------------------
    # Slice lifecycle
    # ------------------------------------------------------------------
    def deploy(self, slice_id: str, template: HeatTemplate, dc_id: str) -> CloudAllocation:
        """Launch the slice's stack in ``dc_id``.

        Raises:
            CloudError: If the slice already has a stack or the DC lacks
                capacity (stack creation is atomic).
        """
        if slice_id in self._stacks:
            raise CloudError(f"slice {slice_id} already has a stack")
        dc = self.datacenter(dc_id)
        stack = HeatStack(template, dc, owner=slice_id)
        stack.create(self.placement)
        self._stacks[slice_id] = stack
        return CloudAllocation(
            dc_id=dc_id,
            stack_id=stack.stack_id,
            vcpus=template.total_vcpus,
            processing_delay_ms=dc.processing_delay_ms,
        )

    def teardown(self, slice_id: str) -> None:
        """Delete the slice's stack and reclaim its resources."""
        stack = self._stacks.pop(slice_id, None)
        if stack is None:
            raise CloudError(f"slice {slice_id} has no stack")
        stack.delete()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def utilization(self) -> dict:
        """Domain telemetry: the dashboard snapshot and the metrics scrape read it."""
        return {
            "domain": "cloud",
            "datacenters": [dc.utilization() for dc in self._dcs.values()],
            "total_vcpus": sum(dc.total_vcpus for dc in self._dcs.values()),
            "free_vcpus": sum(dc.free_vcpus for dc in self._dcs.values()),
            "active_stacks": len(self._stacks),
        }


__all__ = ["CloudAllocation", "CloudController"]
