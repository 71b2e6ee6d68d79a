"""OpenFlow-style programmable switch.

Models the demo's NEC ProgrammableFlow PF5240: a flow table whose
entries match on slice markers (we match on PLMN-id, standing in for
the VLAN/tunnel tags the real deployment used) and forward to an output
port, with per-entry packet/byte counters and priority-ordered lookup.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


class SwitchError(RuntimeError):
    """Raised on flow-table violations."""


@dataclass(frozen=True)
class FlowMatch:
    """Match fields of a flow entry (None = wildcard)."""

    plmn_id: Optional[str] = None
    in_port: Optional[int] = None

    def matches(self, plmn_id: str, in_port: int) -> bool:
        """Whether a packet with the given headers hits this match."""
        if self.plmn_id is not None and self.plmn_id != plmn_id:
            return False
        if self.in_port is not None and self.in_port != in_port:
            return False
        return True

    @property
    def specificity(self) -> int:
        """Number of non-wildcard fields (tie-break within a priority)."""
        return sum(1 for f in (self.plmn_id, self.in_port) if f is not None)


@dataclass
class FlowEntry:
    """One row of the flow table."""

    match: FlowMatch
    out_port: int
    priority: int = 100
    slice_id: Optional[str] = None
    packets: int = field(default=0, compare=False)
    bytes: int = field(default=0, compare=False)


class OpenFlowSwitch:
    """Priority-ordered flow table with per-entry counters."""

    def __init__(self, switch_id: str, n_ports: int = 48) -> None:
        if n_ports <= 0:
            raise SwitchError(f"port count must be positive, got {n_ports}")
        self.switch_id = switch_id
        self.n_ports = int(n_ports)
        self._table: List[FlowEntry] = []
        # Indices, mutated only by install and remove_slice_flows: each
        # entry's sort key, parallel to the table (the install sequence
        # number keeps ties in install order, as append + stable sort
        # did); the (match, priority) pairs present; each slice's keys.
        self._keys: List[Tuple[int, int, int]] = []
        self._rules: Set[Tuple[FlowMatch, int]] = set()
        self._by_slice: Dict[Optional[str], List[Tuple[int, int, int]]] = {}
        self._installs = 0

    # ------------------------------------------------------------------
    # Table management (the controller's job)
    # ------------------------------------------------------------------
    def install(self, entry: FlowEntry) -> None:
        """Add a flow entry.

        Raises:
            SwitchError: On invalid ports or exact-duplicate match+priority.
        """
        if not 0 <= entry.out_port < self.n_ports:
            raise SwitchError(f"out_port {entry.out_port} outside 0..{self.n_ports - 1}")
        if entry.match.in_port is not None and not 0 <= entry.match.in_port < self.n_ports:
            raise SwitchError(f"in_port {entry.match.in_port} outside port range")
        if (entry.match, entry.priority) in self._rules:
            raise SwitchError(
                f"duplicate flow (match={entry.match}, priority={entry.priority})"
            )
        key = (-entry.priority, -entry.match.specificity, self._installs)
        self._installs += 1
        at = bisect_left(self._keys, key)
        self._keys.insert(at, key)
        self._table.insert(at, entry)
        self._rules.add((entry.match, entry.priority))
        self._by_slice.setdefault(entry.slice_id, []).append(key)

    def remove_slice_flows(self, slice_id: str) -> int:
        """Delete all flows installed for ``slice_id``; returns count removed."""
        keys = self._by_slice.pop(slice_id, [])
        for key in keys:
            at = bisect_left(self._keys, key)
            entry = self._table.pop(at)
            del self._keys[at]
            self._rules.remove((entry.match, entry.priority))
        return len(keys)

    def verify_index(self) -> None:
        """Cross-check the table's indices against a recompute.

        Raises:
            SwitchError: If the order, the duplicate set or the
                per-slice index drifted from the table.
        """
        order = [(-e.priority, -e.match.specificity) for e in self._table]
        if [key[:2] for key in self._keys] != order or self._keys != sorted(self._keys):
            raise SwitchError("flow table is out of order")
        by_slice: Dict[Optional[str], list] = {}
        for key, entry in zip(self._keys, self._table):
            by_slice.setdefault(entry.slice_id, []).append(key)
        if self._rules != {(e.match, e.priority) for e in self._table}:
            raise SwitchError("duplicate-detection set drifted from the table")
        if {s: sorted(k) for s, k in self._by_slice.items()} != by_slice:
            raise SwitchError("per-slice index drifted from the table")

    def flows(self) -> List[FlowEntry]:
        """Current table, priority-ordered."""
        return list(self._table)

    def flows_of(self, slice_id: str) -> List[FlowEntry]:
        """Flows belonging to one slice."""
        return [e for e in self._table if e.slice_id == slice_id]

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def lookup(self, plmn_id: str, in_port: int) -> Optional[FlowEntry]:
        """Highest-priority entry matching the packet (None = table miss)."""
        if not 0 <= in_port < self.n_ports:
            raise SwitchError(f"in_port {in_port} outside port range")
        for entry in self._table:
            if entry.match.matches(plmn_id, in_port):
                return entry
        return None

    def forward(self, plmn_id: str, in_port: int, n_bytes: int = 1_500) -> Optional[int]:
        """Forward one packet; returns the output port or None on miss.

        Updates the matched entry's counters.
        """
        entry = self.lookup(plmn_id, in_port)
        if entry is None:
            return None
        entry.packets += 1
        entry.bytes += int(n_bytes)
        return entry.out_port

    def stats(self) -> dict:
        """Per-flow counters (telemetry)."""
        return {
            "switch_id": self.switch_id,
            "n_flows": len(self._table),
            "flows": [
                {
                    "slice_id": e.slice_id,
                    "plmn_id": e.match.plmn_id,
                    "in_port": e.match.in_port,
                    "out_port": e.out_port,
                    "priority": e.priority,
                    "packets": e.packets,
                    "bytes": e.bytes,
                }
                for e in self._table
            ],
        }


__all__ = ["FlowEntry", "FlowMatch", "OpenFlowSwitch", "SwitchError"]
