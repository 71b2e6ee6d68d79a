"""Revenue and penalty accounting.

The demo dashboard "shows the current gains vs. penalties when multiple
network slices are running"; :class:`RevenueLedger` is the book those
numbers come from.  Every admission books the slice's price, every SLA
violation epoch books a penalty, and every rejection books the revenue
left on the table (opportunity cost, reported but not subtracted).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List

from repro.core.slices import SliceRequest


class LedgerError(RuntimeError):
    """Raised on double-booking or unknown slices."""


@dataclass
class LedgerEntry:
    """Per-slice account.

    Attributes:
        slice_id: The slice this account belongs to.
        price: Revenue booked at admission.
        penalties: Total penalties accrued so far.
        violation_epochs: Number of penalized epochs.
    """

    slice_id: str
    price: float
    penalties: float = 0.0
    violation_epochs: int = 0

    @property
    def net(self) -> float:
        """Price minus penalties for this slice."""
        return self.price - self.penalties


@dataclass
class RejectionRecord:
    """One rejected request (opportunity-cost reporting)."""

    request_id: str
    price: float
    reason: str
    at_time: float


#: Rejection records a ledger keeps, newest; count and sum are running totals.
RECENT_REJECTIONS = 1024


class RevenueLedger:
    """Account book for admissions, penalties and rejections."""

    def __init__(self) -> None:
        self._entries: Dict[str, LedgerEntry] = {}
        self._rejections: Deque[RejectionRecord] = deque(maxlen=RECENT_REJECTIONS)
        self._rejected_count = 0
        self._rejected_revenue = 0.0

    # ------------------------------------------------------------------
    # Booking
    # ------------------------------------------------------------------
    def book_admission(self, slice_id: str, request: SliceRequest) -> LedgerEntry:
        """Open the slice's account and book its price.

        Raises:
            LedgerError: If the slice is already booked.
        """
        if slice_id in self._entries:
            raise LedgerError(f"slice {slice_id} already booked")
        entry = LedgerEntry(slice_id=slice_id, price=request.price)
        self._entries[slice_id] = entry
        return entry

    def book_penalty(self, slice_id: str, amount: float) -> None:
        """Accrue one violation epoch's penalty against the slice.

        Raises:
            LedgerError: If the slice is unknown or the amount negative.
        """
        if amount < 0:
            raise LedgerError(f"penalty cannot be negative, got {amount}")
        entry = self._entries.get(slice_id)
        if entry is None:
            raise LedgerError(f"slice {slice_id} has no account")
        entry.penalties += amount
        entry.violation_epochs += 1

    def book_refund(self, slice_id: str, amount: float) -> None:
        """Refund part of a slice's price (early termination).

        Refunds reduce the booked price directly, never below zero.

        Raises:
            LedgerError: On an unknown slice, a negative amount, or a
                refund exceeding the remaining booked price.
        """
        if amount < 0:
            raise LedgerError(f"refund cannot be negative, got {amount}")
        entry = self._entries.get(slice_id)
        if entry is None:
            raise LedgerError(f"slice {slice_id} has no account")
        if amount > entry.price + 1e-9:
            raise LedgerError(
                f"refund {amount} exceeds booked price {entry.price}"
            )
        entry.price -= amount

    def book_rejection(self, request: SliceRequest, reason: str, at_time: float) -> None:
        """Record a rejected request and the revenue foregone."""
        self._rejected_count += 1
        self._rejected_revenue += request.price
        self._rejections.append(
            RejectionRecord(
                request_id=request.request_id,
                price=request.price,
                reason=reason,
                at_time=at_time,
            )
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def entry(self, slice_id: str) -> LedgerEntry:
        """The slice's account.

        Raises:
            LedgerError: If unknown.
        """
        try:
            return self._entries[slice_id]
        except KeyError:
            raise LedgerError(f"slice {slice_id} has no account") from None

    @property
    def gross_revenue(self) -> float:
        """Sum of booked prices."""
        return sum(e.price for e in self._entries.values())

    @property
    def total_penalties(self) -> float:
        """Sum of accrued penalties."""
        return sum(e.penalties for e in self._entries.values())

    @property
    def net_revenue(self) -> float:
        """Gross revenue minus penalties — the number the broker maximizes."""
        return self.gross_revenue - self.total_penalties

    @property
    def rejected_revenue(self) -> float:
        """Revenue of rejected requests (opportunity cost, informational)."""
        return self._rejected_revenue

    @property
    def admissions(self) -> int:
        """Number of booked slices."""
        return len(self._entries)

    @property
    def rejections(self) -> int:
        """Number of rejected requests."""
        return self._rejected_count

    def acceptance_ratio(self) -> float:
        """Admitted / (admitted + rejected); 0.0 before any decision."""
        total = self.admissions + self.rejections
        return self.admissions / total if total else 0.0

    def rejection_records(self) -> List[RejectionRecord]:
        """The newest :data:`RECENT_REJECTIONS` rejection records,
        oldest first."""
        return list(self._rejections)

    def summary(self) -> dict:
        """Dashboard-ready totals."""
        return {
            "gross_revenue": self.gross_revenue,
            "total_penalties": self.total_penalties,
            "net_revenue": self.net_revenue,
            "rejected_revenue": self.rejected_revenue,
            "admissions": self.admissions,
            "rejections": self.rejections,
            "acceptance_ratio": self.acceptance_ratio(),
        }


__all__ = ["LedgerEntry", "LedgerError", "RejectionRecord", "RevenueLedger"]
