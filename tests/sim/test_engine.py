"""Tests for the discrete-event engine."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_clock_starts_at_custom_time(self):
        assert Simulator(start_time=10.0).now == 10.0

    def test_schedule_fires_at_correct_time(self, sim):
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.run_until(5.0)
        assert fired == [2.5]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [3.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(2.0, lambda: None)

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run_until(0.0)
        assert fired == [True]

    def test_run_until_advances_clock_past_queue(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(100.0)
        assert sim.now == 100.0

    def test_run_backwards_rejected(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_nan_instant_rejected(self, sim):
        for schedule in (sim.schedule, sim.schedule_at):
            with pytest.raises(SimulationError):
                schedule(math.nan, lambda: None)
        assert sim.pending == 0

    def test_run_until_nan_rejected(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(True))
        with pytest.raises(SimulationError):
            sim.run_until(math.nan)
        assert (fired, sim.now, sim.pending) == ([], 0.0, 1)

    def test_events_beyond_horizon_not_fired(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(True))
        sim.run_until(5.0)
        assert fired == []
        sim.run_until(15.0)
        assert fired == [True]


class TestOrdering:
    def test_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self, sim):
        order = []
        for tag in "abcde":
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run_until(2.0)
        assert order == list("abcde")

    def test_priority_breaks_ties(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=10)
        sim.schedule(1.0, lambda: order.append("high"), priority=0)
        sim.run_until(2.0)
        assert order == ["high", "low"]

    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run_until(max(delays))
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestExecution:
    def test_step_returns_false_on_empty_queue(self, sim):
        assert sim.step() is False

    def test_step_fires_single_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_events_processed_counter(self, sim):
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run_until(10.0)
        assert sim.events_processed == 4

    def test_callback_can_schedule_more_events(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(1.0, lambda: chain(0))
        sim.run_until(10.0)
        assert fired == [0, 1, 2, 3]


DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])
TIMER = st.tuples(
    DELAYS, st.integers(-1, 1), st.lists(st.tuples(DELAYS, st.integers(-1, 1)), max_size=2)
)
SCRIPT = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), TIMER),
        st.tuples(st.just("run"), DELAYS),
        st.just(("step",)),
    ),
    max_size=30,
)


def engine_fires(script) -> tuple:
    """Run ``script`` on the engine: an outside timer is set with
    ``schedule_at``, the timers a callback sets with ``schedule``; each
    fire records the instant and the timer's call order."""
    sim, fired, order, stepped = Simulator(), [], itertools.count(), []

    def arm(delay, priority, children, *, inside):
        ident = next(order)

        def fire():
            fired.append((sim.now, ident))
            for delay, child_priority in children:
                arm(delay, child_priority, (), inside=True)

        if inside:
            sim.schedule(delay, fire, priority=priority)
        else:
            sim.schedule_at(sim.now + delay, fire, priority=priority)

    for op in script:
        if op[0] == "schedule":
            arm(*op[1], inside=False)
        elif op[0] == "run":
            sim.run_until(sim.now + op[1])
        else:
            stepped.append(sim.step())
    sim.run_until(sim.now + 100.0)
    assert sim.events_processed == len(fired) and sim.pending == 0
    return fired, stepped, sim.now


def reference_fires(script) -> tuple:
    """The same script on a list kept in ``(time, priority, call order)``
    order: each fire takes the least entry due."""
    now, pending, fired, order, stepped = 0.0, [], [], itertools.count(), []

    def arm(delay, priority, children):
        pending.append((now + delay, priority, next(order), children))

    def fire_next(limit) -> bool:
        nonlocal now
        due = [entry for entry in pending if entry[0] <= limit]
        if not due:
            return False
        entry = min(due)
        pending.remove(entry)
        now = entry[0]
        fired.append((now, entry[2]))
        for delay, priority in entry[3]:
            arm(delay, priority, ())
        return True

    def run_until(end):
        nonlocal now
        while fire_next(end):
            pass
        now = max(now, end)

    for op in script:
        if op[0] == "schedule":
            arm(*op[1])
        elif op[0] == "run":
            run_until(now + op[1])
        else:
            stepped.append(fire_next(math.inf))
    run_until(now + 100.0)
    return fired, stepped, now


@settings(max_examples=300, deadline=None)
@given(script=SCRIPT)
def test_the_engine_fires_as_the_sorted_reference(script):
    """Timers set from outside and from callbacks, ties in time and
    priority, times equal to now, advanced by ``run_until`` and ``step``:
    the same callbacks fire at the same instants in the same order."""
    assert engine_fires(script) == reference_fires(script)
