"""Transport link model.

Three link technologies appear in the demo testbed (Fig. 2): mmWave
(high capacity, short reach), µwave (lower capacity) and wired
fibre/copper between the switch and the data centers.  Each link tracks
per-slice bandwidth reservations and enforces its capacity; the
``overbookable`` nominal/effective distinction mirrors the PRB grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional


class LinkError(RuntimeError):
    """Raised on link capacity/accounting violations."""


class LinkKind(enum.Enum):
    """Transport technology of a link (affects defaults, reporting)."""

    MMWAVE = "mmwave"
    MICROWAVE = "microwave"
    FIBER = "fiber"
    COPPER = "copper"


class LinkState(enum.Enum):
    """Operational state (failure injection flips this)."""

    UP = "up"
    DOWN = "down"


#: Typical (capacity Mb/s, one-way delay ms) per technology, used by the
#: testbed builder when explicit numbers are not given.
DEFAULT_LINK_SPECS: Dict[LinkKind, tuple] = {
    LinkKind.MMWAVE: (1_000.0, 1.0),
    LinkKind.MICROWAVE: (400.0, 2.0),
    LinkKind.FIBER: (10_000.0, 0.5),
    LinkKind.COPPER: (1_000.0, 0.8),
}


@dataclass
class Reservation:
    """Per-slice bandwidth reservation on one link (Mb/s)."""

    slice_id: str
    nominal_mbps: float
    effective_mbps: float

    def __post_init__(self) -> None:
        if self.nominal_mbps <= 0:
            raise LinkError(f"nominal bandwidth must be positive, got {self.nominal_mbps}")
        if self.effective_mbps <= 0:
            raise LinkError(f"effective bandwidth must be positive, got {self.effective_mbps}")
        if self.effective_mbps > self.nominal_mbps + 1e-9:
            raise LinkError(
                f"effective ({self.effective_mbps}) cannot exceed nominal "
                f"({self.nominal_mbps})"
            )


class Link:
    """A directed transport link with capacity, delay and reservations."""

    def __init__(
        self,
        link_id: str,
        src: str,
        dst: str,
        kind: LinkKind = LinkKind.FIBER,
        capacity_mbps: float = None,  # type: ignore[assignment]
        delay_ms: float = None,  # type: ignore[assignment]
    ) -> None:
        default_cap, default_delay = DEFAULT_LINK_SPECS[kind]
        self.link_id = link_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.capacity_mbps = float(capacity_mbps if capacity_mbps is not None else default_cap)
        self.delay_ms = float(delay_ms if delay_ms is not None else default_delay)
        if self.capacity_mbps <= 0:
            raise LinkError(f"capacity must be positive, got {self.capacity_mbps}")
        if self.delay_ms < 0:
            raise LinkError(f"delay cannot be negative, got {self.delay_ms}")
        self.state = LinkState.UP
        self._reservations: Dict[str, Reservation] = {}
        # Running totals so the accounting properties are O(1) instead
        # of O(#reservations); reset to exact zero whenever the link
        # empties so float drift cannot accumulate across slice churn.
        self._effective_sum = 0.0
        self._nominal_sum = 0.0
        #: Invoked (with the link) after every mutation that changes
        #: residual capacity or operational state.  The owning Topology
        #: hooks this to feed its dirty-node tracking and its down set.
        self.on_change: Optional[Callable[["Link"], None]] = None

    def _changed(self) -> None:
        if not self._reservations:
            self._effective_sum = 0.0
            self._nominal_sum = 0.0
        if self.on_change is not None:
            self.on_change(self)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def effective_reserved_mbps(self) -> float:
        """Bandwidth committed after overbooking shrinkage."""
        return self._effective_sum

    @property
    def nominal_reserved_mbps(self) -> float:
        """Bandwidth the SLAs nominally imply."""
        return self._nominal_sum

    @property
    def residual_mbps(self) -> float:
        """Physically free capacity (0 when the link is down)."""
        if self.state is LinkState.DOWN:
            return 0.0
        return self.capacity_mbps - self.effective_reserved_mbps

    @property
    def up(self) -> bool:
        """Whether the link is operational."""
        return self.state is LinkState.UP

    def reserve(self, slice_id: str, nominal_mbps: float, effective_mbps: float) -> None:
        """Commit bandwidth for a slice.

        Raises:
            LinkError: On duplicates, a down link, or insufficient residual.
        """
        if slice_id in self._reservations:
            raise LinkError(f"slice {slice_id} already reserved on {self.link_id}")
        if self.state is LinkState.DOWN:
            raise LinkError(f"link {self.link_id} is down")
        reservation = Reservation(slice_id, nominal_mbps, effective_mbps)
        if effective_mbps > self.residual_mbps + 1e-9:
            raise LinkError(
                f"link {self.link_id}: {effective_mbps:.1f} Mb/s requested but "
                f"only {self.residual_mbps:.1f} free"
            )
        self._reservations[slice_id] = reservation
        self._effective_sum += effective_mbps
        self._nominal_sum += nominal_mbps
        self._changed()

    def renominate(self, slice_id: str, nominal_mbps: float, effective_mbps: float) -> None:
        """Replace the slice's reservation (a rescale moves the nominal
        bandwidth, the overbooking knob the effective one).  Atomic: the
        old reservation stands on failure.

        Raises:
            LinkError: If the slice holds no reservation or the new
                effective commitment does not fit.
        """
        current = self._reservations.get(slice_id)
        if current is None:
            raise LinkError(f"slice {slice_id} holds no reservation on {self.link_id}")
        others = self.effective_reserved_mbps - current.effective_mbps
        replacement = Reservation(slice_id, nominal_mbps, effective_mbps)
        if others + effective_mbps > self.capacity_mbps + 1e-9:
            raise LinkError(f"renominate does not fit on {self.link_id}")
        self._reservations[slice_id] = replacement
        self._effective_sum += effective_mbps - current.effective_mbps
        self._nominal_sum += nominal_mbps - current.nominal_mbps
        self._changed()

    def release(self, slice_id: str) -> None:
        """Drop the slice's reservation."""
        if slice_id not in self._reservations:
            raise LinkError(f"slice {slice_id} holds no reservation on {self.link_id}")
        current = self._reservations.pop(slice_id)
        self._effective_sum -= current.effective_mbps
        self._nominal_sum -= current.nominal_mbps
        self._changed()

    def has(self, slice_id: str) -> bool:
        """Whether the slice reserves bandwidth here."""
        return slice_id in self._reservations

    def slices(self) -> list[str]:
        """Slice ids with reservations on this link."""
        return list(self._reservations)

    def fail(self) -> None:
        """Failure injection: mark the link down (reservations survive)."""
        self.state = LinkState.DOWN
        self._changed()

    def restore(self) -> None:
        """Bring a failed link back up."""
        self.state = LinkState.UP
        self._changed()

    def check_invariants(self) -> None:
        """Cross-check the running totals against a recompute.

        Raises:
            LinkError: If the delta-maintained sums drifted from ground
                truth by more than float tolerance.
        """
        effective = sum(r.effective_mbps for r in self._reservations.values())
        nominal = sum(r.nominal_mbps for r in self._reservations.values())
        if abs(effective - self._effective_sum) > 1e-6 or abs(nominal - self._nominal_sum) > 1e-6:
            raise LinkError(
                f"link {self.link_id}: running totals "
                f"(eff={self._effective_sum}, nom={self._nominal_sum}) drifted "
                f"from recomputed (eff={effective}, nom={nominal})"
            )

    def utilization(self) -> dict:
        """Telemetry snapshot for the transport controller."""
        return {
            "link_id": self.link_id,
            "kind": self.kind.value,
            "state": self.state.value,
            "capacity_mbps": self.capacity_mbps,
            "delay_ms": self.delay_ms,
            "effective_reserved_mbps": self.effective_reserved_mbps,
            "nominal_reserved_mbps": self.nominal_reserved_mbps,
            "residual_mbps": self.residual_mbps,
            "slices": self.slices(),
        }

__all__ = ["DEFAULT_LINK_SPECS", "Link", "LinkError", "LinkKind", "LinkState", "Reservation"]
