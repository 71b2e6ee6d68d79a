"""Transport domain controller.

Second of the three hierarchical controllers of Fig. 1.  Owns the
topology and any OpenFlow switches, reserves per-slice constrained paths
(delay + capacity), programs matching flow entries, resizes reservations
when the overbooking engine reconfigures, and reports utilization.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.transport.links import LinkError
from repro.transport.paths import (
    ComputedPath,
    PathComputationError,
    PathRequest,
    constrained_shortest_path,
)
from repro.transport.switch import FlowEntry, FlowMatch, OpenFlowSwitch
from repro.transport.topology import Topology


class TransportError(RuntimeError):
    """Raised on transport-domain allocation failures."""


@dataclass(frozen=True)
class TransportAllocation:
    """Result of reserving a slice's transport path.

    Attributes:
        path: The reserved path (link ids + metrics).
        nominal_mbps: SLA bandwidth.
        effective_mbps: Bandwidth actually committed (post-overbooking).
        request: The original constrained-path request (kept so the path
            can be re-computed after a link failure).
    """

    path: ComputedPath
    nominal_mbps: float
    effective_mbps: float
    request: Optional[PathRequest] = None

    @property
    def delay_ms(self) -> float:
        """One-way delay of the reserved path."""
        return self.path.delay_ms


class TransportController:
    """Controller for the transport domain."""

    def __init__(
        self,
        topology: Topology,
        switches: Optional[List[OpenFlowSwitch]] = None,
    ) -> None:
        self.topology = topology
        self._switches: Dict[str, OpenFlowSwitch] = {
            sw.switch_id: sw for sw in (switches or [])
        }
        self._paths: Dict[str, TransportAllocation] = {}  # slice_id -> allocation
        self._plmns: Dict[str, str] = {}  # slice_id -> plmn_id (for re-programming)
        self._port_counter: Dict[str, int] = {}
        self.repairs_performed = 0
        #: Serialization lock for this controller: the methods here are
        #: not thread-safe, so every concurrent caller (the transport
        #: driver under the batch install planner, or any direct user)
        #: must hold it across a call.  ``build_default_registry`` wires
        #: it as the TransportDriver's serial lock.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def allocation_of(self, slice_id: str) -> Optional[TransportAllocation]:
        """The slice's current path allocation (None if absent)."""
        return self._paths.get(slice_id)

    def feasible(self, request: PathRequest) -> bool:
        """Whether *some* path currently satisfies the request."""
        try:
            constrained_shortest_path(self.topology, request)
        except PathComputationError:
            return False
        return True

    # ------------------------------------------------------------------
    # Slice lifecycle
    # ------------------------------------------------------------------
    def reserve_path(
        self,
        slice_id: str,
        plmn_id: str,
        request: PathRequest,
        effective_fraction: float = 1.0,
    ) -> TransportAllocation:
        """Reserve a constrained path and program flows for a slice.

        The path is found with CSPF against *effective* (shrunk)
        bandwidth, reserved atomically on every link, then flow entries
        matching the slice's PLMN-id are installed on traversed switches.

        Raises:
            TransportError: If no feasible path exists or the slice
                already holds one.
        """
        if slice_id in self._paths:
            raise TransportError(f"slice {slice_id} already holds a path")
        if not 0.0 < effective_fraction <= 1.0:
            raise TransportError(
                f"effective fraction must be in (0, 1], got {effective_fraction}"
            )
        effective = request.min_bandwidth_mbps * effective_fraction
        probe = PathRequest(
            src=request.src,
            dst=request.dst,
            min_bandwidth_mbps=effective,
            max_delay_ms=request.max_delay_ms,
        )
        try:
            path = constrained_shortest_path(self.topology, probe)
        except PathComputationError as exc:
            raise TransportError(str(exc)) from exc
        # Reserve on every link, rolling back on failure so a half-made
        # reservation never leaks.
        reserved: List[str] = []
        try:
            for link_id in path.link_ids:
                self.topology.link(link_id).reserve(
                    slice_id, request.min_bandwidth_mbps, effective
                )
                reserved.append(link_id)
        except LinkError as exc:
            for link_id in reserved:
                self.topology.link(link_id).release(slice_id)
            raise TransportError(f"reservation race on {link_id}: {exc}") from exc
        allocation = TransportAllocation(
            path=path,
            nominal_mbps=request.min_bandwidth_mbps,
            effective_mbps=effective,
            request=request,
        )
        self._paths[slice_id] = allocation
        self._plmns[slice_id] = plmn_id
        self._program_flows(slice_id, plmn_id, path)
        return allocation

    def _program_flows(self, slice_id: str, plmn_id: str, path: ComputedPath) -> None:
        """Install PLMN-match flows on switches the path traverses."""
        for link_id in path.link_ids:
            link = self.topology.link(link_id)
            if link.src in self._switches:
                switch = self._switches[link.src]
                port = self._next_port(switch.switch_id)
                switch.install(
                    FlowEntry(
                        match=FlowMatch(plmn_id=plmn_id),
                        out_port=port,
                        priority=200,
                        slice_id=slice_id,
                    )
                )

    def _next_port(self, switch_id: str) -> int:
        switch = self._switches[switch_id]
        port = self._port_counter.get(switch_id, 0)
        self._port_counter[switch_id] = (port + 1) % switch.n_ports
        return port

    def modify_bandwidth(
        self,
        slice_id: str,
        new_nominal_mbps: float,
        effective_fraction: float = 1.0,
    ) -> TransportAllocation:
        """Re-dimension the slice's reservation along its current path.

        The path itself is kept (delay is unchanged by scaling); only
        the bandwidth reservation is re-nominated on every link.

        Raises:
            TransportError: If the slice holds no path or the grown
                commitment does not fit some link.
        """
        allocation = self._paths.get(slice_id)
        if allocation is None:
            raise TransportError(f"slice {slice_id} holds no path")
        if new_nominal_mbps <= 0:
            raise TransportError(
                f"bandwidth must be positive, got {new_nominal_mbps}"
            )
        if not 0.0 < effective_fraction <= 1.0:
            raise TransportError(
                f"effective fraction must be in (0, 1], got {effective_fraction}"
            )
        effective = new_nominal_mbps * effective_fraction
        done: List[str] = []
        try:
            for link_id in allocation.path.link_ids:
                self.topology.link(link_id).renominate(
                    slice_id, new_nominal_mbps, effective
                )
                done.append(link_id)
        except LinkError as exc:
            # Roll back to the old reservation on already-modified links.
            for link_id in done:
                self.topology.link(link_id).renominate(
                    slice_id, allocation.nominal_mbps, allocation.effective_mbps
                )
            raise TransportError(str(exc)) from exc
        old_request = allocation.request
        new_request = (
            PathRequest(
                src=old_request.src,
                dst=old_request.dst,
                min_bandwidth_mbps=new_nominal_mbps,
                max_delay_ms=old_request.max_delay_ms,
            )
            if old_request is not None
            else None
        )
        new_allocation = TransportAllocation(
            path=allocation.path,
            nominal_mbps=new_nominal_mbps,
            effective_mbps=effective,
            request=new_request,
        )
        self._paths[slice_id] = new_allocation
        return new_allocation

    def release_path(self, slice_id: str) -> None:
        """Free the slice's links and remove its flows."""
        allocation = self._paths.pop(slice_id, None)
        if allocation is None:
            raise TransportError(f"slice {slice_id} holds no path")
        self._plmns.pop(slice_id, None)
        for link_id in allocation.path.link_ids:
            link = self.topology.link(link_id)
            if link.has(slice_id):
                link.release(slice_id)
        for switch in self._switches.values():
            switch.remove_slice_flows(slice_id)

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------
    def path_healthy(self, slice_id: str) -> bool:
        """Whether every link of the slice's path is currently up.

        Raises:
            TransportError: If the slice holds no path.
        """
        allocation = self._paths.get(slice_id)
        if allocation is None:
            raise TransportError(f"slice {slice_id} holds no path")
        return self.topology.down_link_ids.isdisjoint(allocation.path.link_ids)

    def repair_path(self, slice_id: str) -> TransportAllocation:
        """Re-route a slice whose path traverses a failed link.

        Releases the old reservations, recomputes CSPF under the
        original request's bounds at the current effective bandwidth,
        reserves the new path and reprograms flows.  No-op when the
        path is healthy.

        Raises:
            TransportError: If no feasible replacement path exists (the
                old reservations are restored on the surviving links so
                the slice recovers automatically when the link returns).
        """
        allocation = self._paths.get(slice_id)
        if allocation is None:
            raise TransportError(f"slice {slice_id} holds no path")
        if self.path_healthy(slice_id):
            # Reconcile: a link that failed and came back may be missing
            # this slice's reservation (dropped during a failed repair).
            for link_id in allocation.path.link_ids:
                link = self.topology.link(link_id)
                if not link.has(slice_id):
                    link.reserve(
                        slice_id, allocation.nominal_mbps, allocation.effective_mbps
                    )
            return allocation
        if allocation.request is None:
            raise TransportError(
                f"slice {slice_id} has no stored path request; cannot repair"
            )
        # Release the broken path's reservations.
        for link_id in allocation.path.link_ids:
            link = self.topology.link(link_id)
            if link.has(slice_id):
                link.release(slice_id)
        probe = PathRequest(
            src=allocation.request.src,
            dst=allocation.request.dst,
            min_bandwidth_mbps=allocation.effective_mbps,
            max_delay_ms=allocation.request.max_delay_ms,
        )
        try:
            new_path = constrained_shortest_path(self.topology, probe)
        except PathComputationError as exc:
            # Restore reservations on the surviving links and re-raise.
            for link_id in allocation.path.link_ids:
                link = self.topology.link(link_id)
                if link.up:
                    link.reserve(
                        slice_id, allocation.nominal_mbps, allocation.effective_mbps
                    )
            raise TransportError(f"repair failed: {exc}") from exc
        for link_id in new_path.link_ids:
            self.topology.link(link_id).reserve(
                slice_id, allocation.nominal_mbps, allocation.effective_mbps
            )
        new_allocation = TransportAllocation(
            path=new_path,
            nominal_mbps=allocation.nominal_mbps,
            effective_mbps=allocation.effective_mbps,
            request=allocation.request,
        )
        self._paths[slice_id] = new_allocation
        plmn_id = self._plmns.get(slice_id)
        if plmn_id is not None:
            for switch in self._switches.values():
                switch.remove_slice_flows(slice_id)
            self._program_flows(slice_id, plmn_id, new_path)
        self.repairs_performed += 1
        return new_allocation

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def utilization(self) -> dict:
        """Domain telemetry: the dashboard snapshot and the metrics scrape read it."""
        links = self.topology.links()
        total_cap = sum(l.capacity_mbps for l in links)
        return {
            "domain": "transport",
            "topology": self.topology.utilization(),
            "switches": [sw.stats() for sw in self._switches.values()],
            "total_capacity_mbps": total_cap,
            "effective_reserved_mbps": sum(l.effective_reserved_mbps for l in links),
            "nominal_reserved_mbps": sum(l.nominal_reserved_mbps for l in links),
            "active_paths": len(self._paths),
        }


__all__ = ["TransportAllocation", "TransportController", "TransportError"]
