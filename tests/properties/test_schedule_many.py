"""``Simulator.schedule_many`` is the same calls made one at a time.

On random queues (pending events, cancelled ones, a clock moved on) and
random batches (ties in time, a batch smaller or larger than the queue),
two simulators — one scheduling the batch with ``schedule_many``, the
other with one ``schedule_at`` per timer — fire the same callbacks at
the same instants in the same ``(time, priority, seq)`` order, and a
batch event cancelled in the queue is skipped as a cancelled call's is.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import EventHandle, SimulationError, Simulator

TIMES = st.sampled_from([0.0, 1.0, 2.5, 2.5, 7.0, 10.0, 30.0])
BEFORE = st.lists(st.tuples(TIMES, st.integers(-1, 1), st.booleans()), max_size=20)
BATCH = st.lists(TIMES, max_size=40)


def scheduled_and_fired(before, advance_to, batch, cancel, many: bool) -> tuple:
    sim, fired = Simulator(), []
    for index, (time, priority, cancelled) in enumerate(before):
        handle = sim.schedule_at(
            time, lambda i=index: fired.append((sim.now, "before", i)), priority=priority
        )
        if cancelled:
            handle.cancel()
    sim.run_until(advance_to)
    timers = [
        (max(time, sim.now), lambda i=index: fired.append((sim.now, "batch", i)), f"t{index}")
        for index, time in enumerate(batch)
    ]
    if many:
        assert sim.schedule_many(timers) is None  # no handle is built
    else:
        for t, callback, name in timers:
            assert isinstance(sim.schedule_at(t, callback, name=name), EventHandle)
    cancelled = {f"t{index}" for index in cancel}
    for event in sim._queue:
        if event.name in cancelled:
            event.cancelled = True  # what its handle's cancel() does
    queued = sorted((e.time, e.priority, e.seq, e.name, e.cancelled) for e in sim._queue)
    sim.run_until(100.0)
    return queued, fired


@settings(max_examples=200, deadline=None)
@given(
    before=BEFORE, advance_to=st.sampled_from([0.0, 2.5, 8.0]), batch=BATCH,
    cancel=st.lists(st.integers(0, 40), max_size=5),
)
def test_a_batch_fires_as_the_calls_made_one_at_a_time(before, advance_to, batch, cancel):
    one_by_one = scheduled_and_fired(before, advance_to, batch, cancel, many=False)
    batched = scheduled_and_fired(before, advance_to, batch, cancel, many=True)
    assert batched == one_by_one  # the same events queued, fired in the same order


def test_a_batch_with_a_past_time_schedules_nothing():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_many([(6.0, lambda: None, "a"), (4.0, lambda: None, "b")])
    assert sim.pending == 0
