"""Physical Resource Block accounting.

An LTE carrier exposes a fixed PRB budget per subframe determined by its
channel bandwidth (3GPP TS 36.101).  The demo reserves PRBs per slice
through the RAN controller; :class:`PrbGrid` is the bookkeeping object
that enforces the budget, supports overbookable *nominal* vs. *effective*
reservations, and never lets effective commitments exceed physical PRBs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Channel bandwidth (MHz) → PRBs per subframe (TS 36.101 Table 5.6-1).
PRB_GRID: Dict[float, int] = {
    1.4: 6,
    3.0: 15,
    5.0: 25,
    10.0: 50,
    15.0: 75,
    20.0: 100,
}


class PrbError(RuntimeError):
    """Raised on PRB accounting violations."""


def prbs_for_bandwidth(bandwidth_mhz: float) -> int:
    """PRBs per subframe for a standard LTE channel bandwidth.

    Raises:
        PrbError: If ``bandwidth_mhz`` is not a standard LTE bandwidth.
    """
    try:
        return PRB_GRID[float(bandwidth_mhz)]
    except KeyError:
        valid = sorted(PRB_GRID)
        raise PrbError(
            f"{bandwidth_mhz} MHz is not a standard LTE bandwidth {valid}"
        ) from None


@dataclass
class PrbReservation:
    """Per-slice PRB reservation.

    ``nominal`` is what the SLA implies; ``effective`` is what the
    overbooking engine actually sets aside (≤ nominal when overbooked).
    """

    slice_id: str
    nominal: int
    effective: int

    def __post_init__(self) -> None:
        if self.nominal <= 0:
            raise PrbError(f"nominal PRBs must be positive, got {self.nominal}")
        if self.effective <= 0:
            raise PrbError(f"effective PRBs must be positive, got {self.effective}")
        if self.effective > self.nominal:
            raise PrbError(
                f"effective ({self.effective}) cannot exceed nominal ({self.nominal})"
            )


class PrbGrid:
    """PRB budget of one carrier with slice-level reservations.

    Invariant (checked on every mutation and by the property tests):
    ``sum(effective) ≤ total_prbs``.  The *nominal* sum may exceed the
    budget — that excess is precisely the overbooking.
    """

    def __init__(self, bandwidth_mhz: float = 10.0) -> None:
        self.bandwidth_mhz = float(bandwidth_mhz)
        self.total_prbs = prbs_for_bandwidth(bandwidth_mhz)
        self._reservations: Dict[str, PrbReservation] = {}
        # Running totals maintained by every mutation so the hot-path
        # queries below are O(1) instead of O(#slices).
        # ``check_invariants`` recomputes and cross-checks them.
        self._effective_sum = 0
        self._nominal_sum = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def effective_reserved(self) -> int:
        """PRBs committed after overbooking shrinkage."""
        return self._effective_sum

    @property
    def nominal_reserved(self) -> int:
        """PRBs the SLAs nominally imply (may exceed the physical budget)."""
        return self._nominal_sum

    @property
    def free_prbs(self) -> int:
        """Physically uncommitted PRBs."""
        return self.total_prbs - self.effective_reserved

    @property
    def overbooking_ratio(self) -> float:
        """nominal / physical budget; > 1 means the carrier is overbooked."""
        return self.nominal_reserved / self.total_prbs

    def reservation(self, slice_id: str) -> PrbReservation:
        """The reservation of ``slice_id``.

        Raises:
            PrbError: If the slice holds no reservation here.
        """
        try:
            return self._reservations[slice_id]
        except KeyError:
            raise PrbError(f"slice {slice_id} holds no PRBs on this carrier") from None

    def slices(self) -> list[str]:
        """Slice ids with a reservation, insertion-ordered."""
        return list(self._reservations)

    def has(self, slice_id: str) -> bool:
        """Whether ``slice_id`` holds a reservation."""
        return slice_id in self._reservations

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def reserve(self, slice_id: str, nominal: int, effective: int) -> PrbReservation:
        """Create a reservation.

        Raises:
            PrbError: On duplicate slice, or if the effective commitment
                would exceed the physical budget.
        """
        if slice_id in self._reservations:
            raise PrbError(f"slice {slice_id} already reserved on this carrier")
        reservation = PrbReservation(slice_id, nominal, effective)
        if self.effective_reserved + effective > self.total_prbs:
            raise PrbError(
                f"cannot commit {effective} PRBs: only {self.free_prbs} of "
                f"{self.total_prbs} free"
            )
        self._reservations[slice_id] = reservation
        self._effective_sum += effective
        self._nominal_sum += nominal
        return reservation

    def renominate(self, slice_id: str, nominal: int, effective: int) -> PrbReservation:
        """Replace the slice's reservation: a tenant's rescale moves
        ``nominal``, the overbooking knob moves ``effective`` under an
        unchanged one.  Atomic: on failure the old reservation stands.

        Raises:
            PrbError: If the slice holds no reservation or the new
                effective commitment does not fit.
        """
        current = self.reservation(slice_id)
        others = self.effective_reserved - current.effective
        replacement = PrbReservation(slice_id, nominal, effective)
        if others + effective > self.total_prbs:
            raise PrbError(
                f"renominate to {effective} PRBs does not fit "
                f"({self.total_prbs - others} free)"
            )
        self._reservations[slice_id] = replacement
        self._effective_sum += effective - current.effective
        self._nominal_sum += nominal - current.nominal
        return replacement

    def release(self, slice_id: str) -> None:
        """Drop the slice's reservation.

        Raises:
            PrbError: If the slice holds no reservation.
        """
        if slice_id not in self._reservations:
            raise PrbError(f"slice {slice_id} holds no PRBs on this carrier")
        current = self._reservations.pop(slice_id)
        self._effective_sum -= current.effective
        self._nominal_sum -= current.nominal

    def check_invariants(self) -> None:
        """Assert the physical-budget invariant (used by property tests).

        Also recomputes the delta-maintained totals from scratch and
        fails if they drifted from ground truth.
        """
        effective = sum(r.effective for r in self._reservations.values())
        nominal = sum(r.nominal for r in self._reservations.values())
        if effective != self._effective_sum or nominal != self._nominal_sum:
            raise PrbError(
                f"invariant violated: running totals "
                f"(eff={self._effective_sum}, nom={self._nominal_sum}) drifted "
                f"from recomputed (eff={effective}, nom={nominal})"
            )
        if self.effective_reserved > self.total_prbs:
            raise PrbError(
                f"invariant violated: {self.effective_reserved} effective PRBs "
                f"> budget {self.total_prbs}"
            )


__all__ = ["PRB_GRID", "PrbError", "PrbGrid", "PrbReservation", "prbs_for_bandwidth"]
