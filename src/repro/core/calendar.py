"""Resource calendar for advance slice reservations.

The paper's admission problem accounts for "resource availability,
ongoing slice reservations **and upcoming requests**" (§2): a tenant may
book a slice starting in the future, and admission must check capacity
over the slice's *whole lifetime* against everything already promised —
not just the instantaneous free vector.

:class:`ResourceCalendar` keeps a piecewise-constant timeline of
committed multi-domain capacity.  Commitments are half-open intervals
``[start, end)`` carrying a :class:`ResourceVector`; feasibility of a
new booking is the peak committed usage over its interval staying within
capacity.  Because usage only changes at interval boundaries, the peak
over a window is exact by evaluating at the window start plus every
boundary inside it.

Queries do not re-sum the bookings: usage at ``t`` is the running sum
of *every* booking's demand, minus what starts after ``t``, minus what
ended by ``t`` — both read off sorted ``(start, id)``/``(end, id)`` lists.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.core.admission import ResourceVector


class CalendarError(RuntimeError):
    """Raised on calendar misuse (bad intervals, duplicate bookings)."""


@dataclass(frozen=True)
class Booking:
    """One committed interval on the calendar."""

    booking_id: str
    start: float
    end: float
    demand: ResourceVector

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise CalendarError(
                f"booking {self.booking_id}: end ({self.end}) must exceed "
                f"start ({self.start})"
            )


_WHEN = itemgetter(0)


def _shift(usage: List[float], demand: ResourceVector, sign: float) -> None:
    usage[0] += sign * demand.prbs
    usage[1] += sign * demand.mbps
    usage[2] += sign * demand.vcpus


class ResourceCalendar:
    """Timeline of multi-domain capacity commitments."""

    def __init__(self, capacity: ResourceVector) -> None:
        self.capacity = capacity
        self._bookings: Dict[str, Booking] = {}
        # The index: boundary keys in time order, and the summed demand
        # of all bookings — a float, so prune_before re-anchors it and
        # rounding drift never outlives one prune interval.
        self._by_start: List[Tuple[float, str]] = []
        self._by_end: List[Tuple[float, str]] = []
        self._total = [0.0, 0.0, 0.0]

    # ------------------------------------------------------------------
    # Bookings
    # ------------------------------------------------------------------
    def commit(
        self, booking_id: str, start: float, end: float, demand: ResourceVector
    ) -> Booking:
        """Record a commitment (does not check feasibility — call
        :meth:`fits` first; the split lets policies decide to overbook).

        Raises:
            CalendarError: On a duplicate id or an empty interval.
        """
        self.commit_many([(booking_id, start, end, demand)])
        return self._bookings[booking_id]

    def commit_many(self, entries: List[Tuple[str, float, float, ResourceVector]]) -> None:
        """:meth:`commit` each ``(booking_id, start, end, demand)``, all or
        none: a batch enters the boundary lists by one sort, and the total
        adds its demands in entry order, the floats of one commit each."""
        bookings: Dict[str, Booking] = {}
        for booking_id, start, end, demand in entries:
            if booking_id in self._bookings or booking_id in bookings:
                raise CalendarError(f"booking {booking_id} already exists")
            bookings[booking_id] = Booking(booking_id, float(start), float(end), demand)
        self._bookings.update(bookings)
        for index, keys in (
            (self._by_start, [(b.start, i) for i, b in bookings.items()]),
            (self._by_end, [(b.end, i) for i, b in bookings.items()]),
        ):
            if len(keys) == 1:  # bisect, not re-sort, for a lone booking
                insort(index, keys[0])
            elif keys:
                index += keys
                index.sort()
        for booking in bookings.values():
            _shift(self._total, booking.demand, 1.0)

    def update_demand(self, booking_id: str, demand: ResourceVector) -> Booking:
        """Replace a booking's demand, keeping its window.

        Called by the orchestrator's reconfiguration loop so the
        calendar tracks *effective* (overbooked) commitments rather than
        stale cold-start nominals — otherwise the calendar would veto
        exactly the admissions overbooking frees up.

        Raises:
            CalendarError: If the booking does not exist.
        """
        old = self._bookings.get(booking_id)
        if old is None:
            raise CalendarError(f"booking {booking_id} does not exist")
        updated = Booking(booking_id, old.start, old.end, demand)
        self._bookings[booking_id] = updated
        _shift(self._total, old.demand, -1.0)
        _shift(self._total, demand, 1.0)
        return updated

    def release(self, booking_id: str) -> None:
        """Drop a commitment.

        Raises:
            CalendarError: If unknown.
        """
        booking = self._bookings.pop(booking_id, None)
        if booking is None:
            raise CalendarError(f"booking {booking_id} does not exist")
        del self._by_start[bisect_left(self._by_start, (booking.start, booking_id))]
        del self._by_end[bisect_left(self._by_end, (booking.end, booking_id))]
        _shift(self._total, booking.demand, -1.0)

    def has(self, booking_id: str) -> bool:
        """Whether the booking exists."""
        return booking_id in self._bookings

    def get(self, booking_id: str) -> Optional[Booking]:
        """The booking, or None — used by the durability checkpoint to
        capture each live slice's promised window."""
        return self._bookings.get(booking_id)

    def bookings(self) -> List[Booking]:
        """All bookings, start-ordered."""
        return [self._bookings[bid] for _, bid in self._by_start]

    def prune_before(self, t: float) -> int:
        """Drop bookings that ended at or before ``t`` (returns count)
        and re-anchor the running total on what is left."""
        stale = self._by_end[: bisect_right(self._by_end, t, key=_WHEN)]
        for _, booking_id in stale:
            self.release(booking_id)
        self._total = self._summed_demand()
        return len(stale)

    def _summed_demand(self) -> List[float]:
        total = [0.0, 0.0, 0.0]
        for booking in self._bookings.values():  # commit order, as the scan summed
            _shift(total, booking.demand, 1.0)
        return total

    def verify_index(self) -> None:
        """Cross-check the running index against a recompute.

        Raises:
            CalendarError: If a boundary list or the total drifted.
        """
        items = self._bookings.items()
        by_start, by_end = ((b.start, i) for i, b in items), ((b.end, i) for i, b in items)
        if sorted(by_start) != self._by_start or sorted(by_end) != self._by_end:
            raise CalendarError("boundary index drifted from the bookings")
        total = self._summed_demand()
        if any(abs(have - want) > 1e-9 for have, want in zip(self._total, total)):
            raise CalendarError(f"running total {self._total} drifted from {total}")

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    def peak_usage(self, start: float, end: float) -> ResourceVector:
        """Component-wise peak committed usage over ``[start, end)``.

        Exact: usage is piecewise constant with changes only at booking
        boundaries, so the peak is attained at ``start`` or at some
        boundary strictly inside the window.
        """
        if end <= start:
            raise CalendarError(f"bad window [{start}, {end})")
        return self._peak(start, end)

    def _peak(self, start: float, end: float) -> ResourceVector:
        """Peak usage over ``start`` and every booking start inside
        ``(start, end)``, swept from the index."""
        bookings, starts, ends = self._bookings, self._by_start, self._by_end
        usage = list(self._total)
        begun = bisect_right(starts, start, key=_WHEN)
        for _, bid in starts[begun:]:  # everything still to start
            _shift(usage, bookings[bid].demand, -1.0)
        ended = 0
        peak = [0.0, 0.0, 0.0]
        inside = starts[begun:bisect_left(starts, end, key=_WHEN)]
        for when, bid in [(start, None), *inside]:
            while ended < len(ends) and ends[ended][0] <= when:
                _shift(usage, bookings[ends[ended][1]].demand, -1.0)
                ended += 1
            if bid is not None:
                _shift(usage, bookings[bid].demand, 1.0)
            peak = [max(have, now) for have, now in zip(peak, usage)]
        return ResourceVector(*peak)

    def fits(self, demand: ResourceVector, start: float, end: float) -> bool:
        """Whether adding ``demand`` over ``[start, end)`` stays within
        capacity at every instant."""
        peak = self.peak_usage(start, end)
        return (peak + demand).fits_within(self.capacity)


__all__ = ["Booking", "CalendarError", "ResourceCalendar"]
