"""Property-based equivalence of the calendar's running index.

``ResourceCalendar`` answers ``usage_at``/``peak_usage``/``fits`` from
a running total plus start- and end-ordered boundary lists.  These
tests drive randomized schedules of commit / update_demand / release /
prune_before while a clock advances, with bookings that start before,
inside and after every query window and queries on both sides of the
last prune, and assert after every step that:

- the index matches a recompute from the bookings (``verify_index``),
- ``peak_usage`` and ``usage_at`` are within 1e-9 of the historical
  scan (re-sum every booking at every boundary instant), kept here as
  the reference,
- the ``fits`` verdict is the one the scan gives.
"""

from __future__ import annotations

import os
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.admission import ResourceVector
from repro.core.calendar import ResourceCalendar

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=40 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

CAPACITY = ResourceVector(prbs=400.0, mbps=900.0, vcpus=64.0)


def scan_usage_at(calendar: ResourceCalendar, t: float) -> ResourceVector:
    """The scan ``usage_at`` replaced: re-sum every active booking, in
    commit order."""
    total = ResourceVector()
    for booking in calendar._bookings.values():
        if booking.active_at(t):
            total = total + booking.demand
    return total


def scan_peak_usage(calendar: ResourceCalendar, start: float, end: float) -> ResourceVector:
    """The scan ``peak_usage`` replaced: usage at ``start`` and at
    every booking start strictly inside the window."""
    instants = {start} | {
        b.start for b in calendar.bookings() if start < b.start < end
    }
    usages = [scan_usage_at(calendar, t) for t in instants]
    return ResourceVector(
        prbs=max(u.prbs for u in usages),
        mbps=max(u.mbps for u in usages),
        vcpus=max(u.vcpus for u in usages),
    )


def close(a: ResourceVector, b: ResourceVector) -> bool:
    return (
        abs(a.prbs - b.prbs) <= 1e-9
        and abs(a.mbps - b.mbps) <= 1e-9
        and abs(a.vcpus - b.vcpus) <= 1e-9
    )


def random_demand(rng: random.Random) -> ResourceVector:
    # Fractions that are not exact in binary, as overbooked demands are.
    return ResourceVector(
        prbs=rng.randint(1, 40) * rng.choice((1.0, 0.7, 0.35)),
        mbps=rng.choice((2.0, 3.0, 4.0, 5.0)) * rng.uniform(0.3, 1.0),
        vcpus=float(rng.randint(0, 4)),
    )


def check(calendar: ResourceCalendar, rng: random.Random, now: float, pruned: float) -> None:
    calendar.verify_index()
    # Windows starting now, behind the last prune, and in the future.
    for start in (now, pruned - rng.uniform(0.0, 50.0), now + rng.uniform(0.0, 300.0)):
        end = start + rng.choice((0.5, 20.0, 150.0, 2_000.0))
        want = scan_peak_usage(calendar, start, end)
        assert close(calendar.peak_usage(start, end), want)
        assert close(calendar.usage_at(start), scan_usage_at(calendar, start))
        demand = random_demand(rng)
        assert calendar.fits(demand, start, end) == (want + demand).fits_within(CAPACITY)


@SLOW
@given(seed=st.integers(0, 10_000), steps=st.integers(20, 120))
def test_calendar_index_matches_scan_under_random_schedules(seed, steps):
    rng = random.Random(seed)
    calendar = ResourceCalendar(CAPACITY)
    now = pruned = 0.0
    live = []
    for step in range(steps):
        action = rng.random()
        if action < 0.45 or not live:
            # Immediate bookings, and advance bookings that start
            # shortly (inside typical windows) or far ahead (after).
            start = now + rng.choice((0.0, 0.0, rng.uniform(1.0, 100.0), 5_000.0))
            booking_id = f"b{step}"
            calendar.commit(
                booking_id, start, start + rng.uniform(5.0, 400.0), random_demand(rng)
            )
            live.append(booking_id)
        elif action < 0.65:
            calendar.update_demand(rng.choice(live), random_demand(rng))
        elif action < 0.85:
            calendar.release(live.pop(rng.randrange(len(live))))
        else:
            dropped = calendar.prune_before(now)
            pruned = now
            live = [bid for bid in live if calendar.has(bid)]
            assert dropped >= 0 and len(live) == len(calendar.bookings())
        now += rng.choice((0.0, 0.0, 7.5, 60.0))
        check(calendar, rng, now, pruned)


def test_drift_is_reanchored_by_prune():
    """The running total is a float sum; ``prune_before`` replaces it
    with a fresh one, so it equals the scan's bit for bit right after."""
    rng = random.Random(5)
    calendar = ResourceCalendar(CAPACITY)
    for index in range(2_000):
        calendar.commit(f"b{index}", 0.0, 10_000.0, random_demand(rng))
        if index % 3:
            calendar.release(f"b{index - 1}" if calendar.has(f"b{index - 1}") else f"b{index}")
    calendar.verify_index()
    calendar.prune_before(1.0)
    assert calendar.usage_at(1.0) == scan_usage_at(calendar, 1.0)


def test_expired_but_unpruned_bookings_do_not_count():
    calendar = ResourceCalendar(CAPACITY)
    calendar.commit("old", 0.0, 10.0, ResourceVector(prbs=30.0))
    calendar.commit("cur", 5.0, 50.0, ResourceVector(prbs=20.0))
    calendar.commit("next", 40.0, 90.0, ResourceVector(prbs=100.0))
    assert calendar.usage_at(10.0).prbs == 20.0
    assert calendar.peak_usage(10.0, 40.0).prbs == 20.0
    assert calendar.peak_usage(10.0, 41.0).prbs == 120.0
    assert calendar.peak_usage(50.0, 60.0).prbs == 100.0
