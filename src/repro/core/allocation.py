"""Multi-domain placement planning.

Given a slice request, answer the cross-domain questions the admission
and install engines ask — "radio resources (PRBs) are reserved through
the RAN controller, dedicated paths are selected to guarantee the
required delay and capacity in the transport network and cloud (or
mobile edge) data centers are selected to satisfy the network slice
SLAs" (paper §3).

The allocator owns two cross-domain concerns:

1. **Latency budget split** — RAN segment + transport path + DC
   processing must stay within the SLA bound; the transport path is
   searched with whatever budget the fixed RAN/DC terms leave.
2. **Edge-vs-core selection** — core capacity is plentiful but far;
   the allocator prefers the core DC when the latency budget allows and
   spills latency-tight slices (URLLC, automotive) to the edge,
   preserving scarce edge capacity for the slices that need it.

This is a pure *planning* surface: demand estimation and sizing,
free/aggregate capacity vectors, candidate-DC ranking, the
latency-budget split, the commit-nothing placement probe and the
install plan built on it.  The lifecycle itself — the
pre-driver-API ``allocate``/``release``/``modify_throughput``/
``resize`` methods that once committed resources here — is retired:
every install, resize, release and repair runs through
:mod:`repro.drivers` (the two-phase transaction / batch planner over
the :class:`~repro.drivers.registry.DriverRegistry`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.cloud.controller import CloudAllocation, CloudController
from repro.cloud.datacenter import Datacenter, DatacenterTier
from repro.core.admission import ResourceVector
from repro.core.slices import NetworkSlice, SliceRequest
from repro.drivers.base import DomainSpec, Reservation
from repro.epc.components import EPC_FLAVORS, epc_template
from repro.ran.controller import (
    RAN_SEGMENT_LATENCY_MS,
    PlannedCellLoad,
    RanAllocation,
    RanController,
)
from repro.ran.enb import ENodeB
from repro.transport.controller import (
    TransportAllocation,
    TransportController,
)
from repro.transport.paths import PathRequest


class AllocationError(RuntimeError):
    """Raised when end-to-end planning fails; names the failing domain."""

    def __init__(self, domain: str, message: str) -> None:
        super().__init__(f"[{domain}] {message}")
        self.domain = domain
        self.message = message


@dataclass(frozen=True)
class EndToEndAllocation:
    """The slice's committed resources across all three domains."""

    ran: RanAllocation
    transport: TransportAllocation
    cloud: CloudAllocation

    @property
    def total_latency_ms(self) -> float:
        """End-to-end user-plane latency of the allocation."""
        return (
            self.ran.latency_ms
            + self.transport.delay_ms
            + self.cloud.processing_delay_ms
        )


def compose_allocation(reservations: Mapping[str, Reservation]) -> Optional[EndToEndAllocation]:
    """The end-to-end view of a slice's driver reservations, when all
    three data-plane domains participated (custom registries may omit
    some)."""
    try:
        return EndToEndAllocation(
            ran=reservations["ran"].details["allocation"],
            transport=reservations["transport"].details["allocation"],
            cloud=reservations["cloud"].details["allocation"],
        )
    except KeyError:
        return None


@dataclass(frozen=True)
class SliceSize:
    """A request's footprint under one overbooking posture: the
    ``fraction`` of its nominal PRBs and bandwidth the broker sets
    aside, and the ``demand`` that leaves (vCPUs are not overbookable)."""

    fraction: float
    demand: ResourceVector

    @property
    def effective_prbs(self) -> int:
        """Whole PRBs the serving cell must find."""
        return max(1, round(self.demand.prbs))


class MultiDomainAllocator:
    """Plans slices across RAN, transport and cloud (commits nothing)."""

    def __init__(
        self,
        ran: RanController,
        transport: TransportController,
        cloud: CloudController,
    ) -> None:
        self.ran = ran
        self.transport = transport
        self.cloud = cloud
        # Delta-maintained uplink aggregates: per eNB transport node we
        # cache the best residual of its up out-links, kept in a sorted
        # index (for the max) alongside a running sum weighted by how
        # many eNBs hang off the node.  The topology's dirty-node feed
        # tells us which nodes to re-derive — including after direct
        # ``link.fail()``/``restore()`` calls that bypass the transport
        # controller — so ``free_vector``/``aggregate_free_vector`` no
        # longer walk every uplink per call.
        self._uplink_dirty = transport.topology.subscribe_dirty()
        self._uplink_count: Dict[str, int] = {}  # node -> #eNBs attached
        self._uplink_best: Dict[str, float] = {}  # node -> best residual
        self._uplink_index: List[Tuple[float, str]] = []  # sorted (best, node)
        self._uplink_sum = 0.0  # sum over eNBs of their node's best residual
        self._ran_seen_version = -1

    # ------------------------------------------------------------------
    # Delta-maintained uplink aggregates
    # ------------------------------------------------------------------
    def _node_best_residual(self, node: str) -> float:
        best = 0.0
        for link in self.transport.topology.out_links(node):
            if link.up and link.residual_mbps > best:
                best = link.residual_mbps
        return best

    def _refresh_uplinks(self) -> None:
        """Bring the uplink aggregates up to date (O(#dirty nodes))."""
        if self.ran.inventory_version != self._ran_seen_version:
            self._uplink_count = {}
            for enb in self.ran.enbs():
                node = enb.transport_node
                self._uplink_count[node] = self._uplink_count.get(node, 0) + 1
            self._uplink_best = {}
            self._uplink_index = []
            self._uplink_sum = 0.0
            for node, count in self._uplink_count.items():
                best = self._node_best_residual(node)
                self._uplink_best[node] = best
                insort(self._uplink_index, (best, node))
                self._uplink_sum += best * count
            self._ran_seen_version = self.ran.inventory_version
            self._uplink_dirty.clear()
            return
        if not self._uplink_dirty:
            return
        for node in self._uplink_dirty:
            count = self._uplink_count.get(node)
            if count is None:
                continue
            old = self._uplink_best[node]
            best = self._node_best_residual(node)
            if best == old:
                continue
            self._uplink_index.pop(bisect_left(self._uplink_index, (old, node)))
            insort(self._uplink_index, (best, node))
            self._uplink_best[node] = best
            self._uplink_sum += (best - old) * count
        self._uplink_dirty.clear()

    def verify_uplink_aggregates(self) -> None:
        """Cross-check the delta-maintained aggregates against a recompute.

        Raises:
            AllocationError: If the cached per-node bests, the max index
                or the running sum drifted from ground truth (property
                tests call this after randomized schedules).
        """
        self._refresh_uplinks()
        expected_sum = 0.0
        for enb in self.ran.enbs():
            node = enb.transport_node
            best = self._node_best_residual(node)
            expected_sum += best
            if abs(self._uplink_best.get(node, -1.0) - best) > 1e-6:
                raise AllocationError(
                    "transport",
                    f"cached best residual for {node} is "
                    f"{self._uplink_best.get(node)}, expected {best}",
                )
        if abs(expected_sum - self._uplink_sum) > 1e-6:
            raise AllocationError(
                "transport",
                f"running uplink sum {self._uplink_sum} drifted from {expected_sum}",
            )
        if sorted(self._uplink_index) != self._uplink_index or len(
            self._uplink_index
        ) != len(self._uplink_best):
            raise AllocationError("transport", "uplink max-index corrupted")

    # ------------------------------------------------------------------
    # Demand estimation (admission input)
    # ------------------------------------------------------------------
    def demand_vector(
        self, request: SliceRequest, vcpus: Optional[float] = None,
        cell: Optional[ENodeB] = None,
    ) -> ResourceVector:
        """Nominal multi-domain footprint of a request.

        PRBs are dimensioned at the fleet's reference CQI on the first
        registered cell; transport bandwidth equals the SLA throughput;
        vCPUs come from the vEPC template.  ``vcpus`` and ``cell`` are
        what a caller sizing many requests at once (:meth:`sizes`) read
        once for all of them.
        """
        if cell is None:
            enbs = self.ran.enbs()
            if not enbs:
                raise AllocationError("ran", "no eNBs registered")
            cell = enbs[0]
        prbs = cell.prbs_for_throughput(request.sla.throughput_mbps)
        if vcpus is None:
            vcpus = float(epc_template("probe").total_vcpus)
        return ResourceVector(
            prbs=float(prbs),
            mbps=request.sla.throughput_mbps,
            vcpus=vcpus,
        )

    def size(
        self, request: SliceRequest, fraction: float, vcpus: Optional[float] = None,
        cell: Optional[ENodeB] = None,
    ) -> SliceSize:
        """The request's footprint with the overbooking shrinkage
        applied: PRBs and transport bandwidth shrink, VMs do not.
        ``vcpus`` and ``cell`` as for :meth:`demand_vector`."""
        demand = self.demand_vector(request, vcpus, cell)
        return SliceSize(
            fraction,
            ResourceVector(
                prbs=demand.prbs * fraction,
                mbps=demand.mbps * fraction,
                vcpus=demand.vcpus,
            ),
        )

    def sizes(self, asks: Iterable[Tuple[SliceRequest, float]]) -> Iterator[SliceSize]:
        """:meth:`size` of each ``(request, fraction)`` of a batch, the
        reference cell and the vEPC vCPUs read once; asks of one
        throughput and fraction share one (immutable) size."""
        enbs, vcpus, shared = self.ran.enbs(), float(epc_template("probe").total_vcpus), {}
        cell = enbs[0] if enbs else None
        for request, fraction in asks:
            key = (request.sla.throughput_mbps, fraction)
            if key not in shared:
                shared[key] = self.size(request, fraction, vcpus, cell)
            yield shared[key]

    def free_vector(self) -> ResourceVector:
        """Current free capacity across the three domains.

        RAN free PRBs are taken from the *single best cell* (a slice
        lives on one cell, so fleet-wide sums would overstate what one
        request can use); transport uses the most permissive residual of
        the eNB uplinks; cloud sums free vCPUs.
        """
        self._refresh_uplinks()
        free_prbs = self.ran.max_free_prbs()
        free_mbps = self._uplink_index[-1][0] if self._uplink_index else 0.0
        free_vcpus = sum(dc.free_vcpus for dc in self.cloud.datacenters())
        return ResourceVector(prbs=float(free_prbs), mbps=free_mbps, vcpus=float(free_vcpus))

    def aggregate_capacity_vector(self) -> ResourceVector:
        """Fleet-wide *total* capacity (free + committed).

        The resource-calendar capacity for advance reservations: total
        PRBs across cells, summed best-uplink capacity per eNB, and
        total datacenter vCPUs.
        """
        total_prbs = sum(enb.grid.total_prbs for enb in self.ran.enbs())
        total_mbps = 0.0
        for enb in self.ran.enbs():
            capacities = [
                link.capacity_mbps
                for link in self.transport.topology.out_links(enb.transport_node)
            ]
            total_mbps += max(capacities, default=0.0)
        total_vcpus = sum(dc.total_vcpus for dc in self.cloud.datacenters())
        return ResourceVector(
            prbs=float(total_prbs), mbps=total_mbps, vcpus=float(total_vcpus)
        )

    def aggregate_free_vector(self) -> ResourceVector:
        """Fleet-wide free capacity for *batch* planning.

        Unlike :meth:`free_vector` (what one request can use right now),
        this sums across cells and uplinks — the right capacity for a
        batch broker deciding a whole window, where each winner lands on
        its own cell.  A selection that fits the aggregate can still
        fail per-cell placement at install time; the installer handles
        that by booking a rejection.
        """
        self._refresh_uplinks()
        free_prbs = self.ran.total_free_prbs()
        free_mbps = self._uplink_sum
        free_vcpus = sum(dc.free_vcpus for dc in self.cloud.datacenters())
        return ResourceVector(prbs=float(free_prbs), mbps=free_mbps, vcpus=float(free_vcpus))

    # ------------------------------------------------------------------
    # DC selection under the latency budget
    # ------------------------------------------------------------------
    def transport_budget_ms(self, request: SliceRequest, dc: Datacenter) -> float:
        """Path-delay budget left after the fixed RAN and DC terms."""
        return request.sla.max_latency_ms - RAN_SEGMENT_LATENCY_MS - dc.processing_delay_ms

    def candidate_datacenters(self, request: SliceRequest, enb_node: str) -> List[Datacenter]:
        """Feasible DCs for the slice's vEPC, core-first when latency allows.

        A DC qualifies if (i) its free compute hosts the vEPC template
        and (ii) a transport path from the eNB meets the remaining
        latency budget at the SLA bandwidth.
        """
        ordered = sorted(
            self.cloud.datacenters(),
            key=lambda dc: 0 if dc.tier is DatacenterTier.CORE else 1,
        )
        candidates = []
        for dc in ordered:
            if not dc.can_host_flavors(EPC_FLAVORS):
                continue
            budget = self.transport_budget_ms(request, dc)
            if budget <= 0:
                continue
            path_request = PathRequest(
                src=enb_node,
                dst=dc.gateway_node,
                min_bandwidth_mbps=request.sla.throughput_mbps,
                max_delay_ms=budget,
            )
            if self.transport.feasible(path_request):
                candidates.append(dc)
        return candidates

    # ------------------------------------------------------------------
    # Placement probe and install plan (commit nothing)
    # ------------------------------------------------------------------
    def probe(
        self,
        request: SliceRequest,
        size: SliceSize,
        planned_cells: Optional[Dict[str, PlannedCellLoad]] = None,
    ) -> Tuple[Optional[str], Optional[str], List[Datacenter]]:
        """Where the slice would land right now: the ingress cell (it
        pins the transport source node), that cell's transport node and
        the candidate DCs in preference order — ``(None, None, [])``
        when no cell can host it, an empty DC list when none satisfies
        compute + latency from that cell.

        Args:
            planned_cells: Load a batch has staged but not yet prepared,
                counted against each cell (read, never written, here).
        """
        enb_id = self.ran.best_enb_for(
            request.sla.throughput_mbps, size.effective_prbs, planned=planned_cells
        )
        if enb_id is None:
            return None, None, []
        enb_node = self.ran.enb(enb_id).transport_node
        return enb_id, enb_node, self.candidate_datacenters(request, enb_node)

    def feasible(self, request: SliceRequest, effective_fraction: float = 1.0) -> bool:
        """Whether the slice could currently be allocated end-to-end."""
        return bool(self.probe(request, self.size(request, effective_fraction))[2])

    def install_attempts(
        self,
        network_slice: NetworkSlice,
        size: SliceSize,
        domains: List[str],
        planned_cells: Optional[Dict[str, PlannedCellLoad]] = None,
    ) -> List[Dict[str, DomainSpec]]:
        """The install plan for one slice: probe its placement and build
        one full spec map — a :class:`DomainSpec` per domain in
        ``domains`` — per candidate DC, pinned to the probed cell.  The
        only place on the install path that knows about datacenters:
        both executors see opaque attempts and re-prepare every domain
        per attempt.

        Args:
            planned_cells: Shared batch placement ledger; the pick made
                here is recorded into it so later jobs in the same batch
                see the staged load.

        Raises:
            AllocationError: When planning already rules the slice out
                (no cell, no feasible DC).
        """
        request = network_slice.request
        slice_id = network_slice.slice_id
        enb_id, enb_node, candidates = self.probe(request, size, planned_cells)
        if enb_id is None:
            raise AllocationError(
                "ran",
                f"no eNB can host {size.effective_prbs} PRBs for slice {slice_id}",
            )
        if not candidates:
            raise AllocationError(
                "cloud", f"no datacenter satisfies compute + latency for {slice_id}"
            )
        if planned_cells is not None:
            planned_cells.setdefault(enb_id, PlannedCellLoad()).add(size.effective_prbs)
        common = dict(
            slice_id=slice_id,
            tenant_id=request.tenant_id,
            throughput_mbps=request.sla.throughput_mbps,
            max_latency_ms=request.sla.max_latency_ms,
            duration_s=request.sla.duration_s,
            effective_fraction=size.fraction,
            vcpus=size.demand.vcpus,
        )
        plmn = network_slice.plmn
        plmn_id = plmn.plmn_id if plmn else None
        attempts = []
        for dc in candidates:
            known = {
                "ran": {"plmn": plmn, "enb_id": enb_id},
                "transport": {
                    "src": enb_node,
                    "dst": dc.gateway_node,
                    "max_delay_ms": self.transport_budget_ms(request, dc),
                    "plmn_id": plmn_id,
                },
                "cloud": {"dc_id": dc.dc_id},
                "epc": {"plmn_id": plmn_id},
            }
            attempts.append(
                {
                    domain: DomainSpec(attributes=known.get(domain, {}), **common)
                    for domain in domains
                }
            )
        return attempts


__all__ = [
    "AllocationError",
    "EndToEndAllocation",
    "MultiDomainAllocator",
    "SliceSize",
    "compose_allocation",
]
