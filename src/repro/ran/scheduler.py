"""MAC-layer scheduler.

The orchestrator reserves PRBs per slice; the inter-slice
:class:`SliceAwareScheduler` enforces those reservations each epoch and
redistributes a slice's unused PRBs — the mechanism that physically
realizes multiplexing gain.

Scheduling is epoch-granular (seconds, not 1 ms TTIs): each call
produces an *average* PRB share over the epoch, which is the right
granularity for admission/overbooking experiments and keeps simulations
of days of traffic tractable.
"""

from __future__ import annotations

from typing import Dict


class SchedulerError(RuntimeError):
    """Raised on scheduler misuse."""


class SliceAwareScheduler:
    """Inter-slice PRB dispatcher with unused-share redistribution.

    Each epoch, every slice is first granted PRBs to cover its *demand*
    (capped by its effective reservation).  PRBs a slice does not need
    are pooled and redistributed proportionally to slices whose demand
    exceeds their reservation — the statistical-multiplexing mechanism
    that lets an overbooked cell still meet SLAs most of the time.
    """

    def __init__(self, total_prbs: int) -> None:
        if total_prbs <= 0:
            raise SchedulerError(f"total PRBs must be positive, got {total_prbs}")
        self.total_prbs = int(total_prbs)

    def dispatch(
        self,
        demands_prbs: Dict[str, float],
        reservations: Dict[str, int],
        priorities: Dict[str, int] = None,  # type: ignore[assignment]
    ) -> Dict[str, float]:
        """Grant PRBs per slice for one epoch.

        Args:
            demands_prbs: slice → PRBs needed to carry this epoch's demand.
            reservations: slice → effective reserved PRBs (Σ ≤ total).
            priorities: optional slice → QoS priority; spare capacity is
                redistributed to higher-priority slices first (within a
                priority level, proportionally to unmet demand).  Omitted
                ⇒ all slices share one level.

        Returns:
            slice → granted PRBs.  Invariants: Σ grants ≤ total PRBs and
            each grant ≤ demand (never give a slice more than it asked).

        Raises:
            SchedulerError: If reservations exceed the cell budget or the
                maps disagree on slice ids.
        """
        if set(demands_prbs) != set(reservations):
            raise SchedulerError("demand and reservation maps must cover the same slices")
        if priorities is not None and set(priorities) != set(demands_prbs):
            raise SchedulerError("priority map must cover the same slices")
        reserved_total = sum(reservations.values())
        if reserved_total > self.total_prbs:
            raise SchedulerError(
                f"reservations ({reserved_total}) exceed cell budget ({self.total_prbs})"
            )
        grants: Dict[str, float] = {}
        unmet: Dict[str, float] = {}
        pool = float(self.total_prbs - reserved_total)  # never-reserved PRBs
        for slice_id, demand in demands_prbs.items():
            if demand < 0:
                raise SchedulerError(f"demand cannot be negative ({slice_id}: {demand})")
            reserved = float(reservations[slice_id])
            granted = min(demand, reserved)
            grants[slice_id] = granted
            pool += reserved - granted  # unused reservation joins the pool
            if demand > reserved:
                unmet[slice_id] = demand - reserved
        # Redistribute pooled PRBs: strictly by descending priority level,
        # water-filling proportionally to unmet demand within a level.
        levels = sorted(
            {(priorities or {}).get(s, 0) for s in unmet}, reverse=True
        )
        for level in levels:
            if pool <= 1e-9:
                break
            level_unmet = {
                s: u
                for s, u in unmet.items()
                if (priorities or {}).get(s, 0) == level and u > 1e-9
            }
            while pool > 1e-9 and level_unmet:
                total_unmet = sum(level_unmet.values())
                give = {
                    s: min(u, pool * u / total_unmet) for s, u in level_unmet.items()
                }
                for slice_id, extra in give.items():
                    grants[slice_id] += extra
                    level_unmet[slice_id] -= extra
                    unmet[slice_id] -= extra
                pool -= sum(give.values())
                level_unmet = {s: u for s, u in level_unmet.items() if u > 1e-9}
                if all(extra <= 1e-12 for extra in give.values()):
                    break
        return grants


__all__ = [
    "SchedulerError",
    "SliceAwareScheduler",
]
