"""Core discrete-event simulation engine.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
guarantees a deterministic total order for events scheduled at the same
instant with the same priority, which in turn makes every experiment in
this repository reproducible from its random seed alone.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


@dataclass(order=True)
class Event:
    """A single scheduled callback.

    Attributes:
        time: Absolute simulation time (seconds) at which the event fires.
        priority: Tie-break among events at the same time; lower fires first.
        seq: Monotonic sequence number assigned by the simulator.
        callback: Zero-argument callable invoked when the event fires.
        name: Optional human-readable label.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Opaque handle that allows cancelling a scheduled event."""

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self._event.cancelled = True


class Simulator:
    """Minimal but complete discrete-event simulator.

    The simulator owns the virtual clock.  Components schedule callbacks
    with :meth:`schedule` (relative delay) or :meth:`schedule_at`
    (absolute time) and the experiment driver advances the clock with
    :meth:`run_until` or :meth:`step`.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
        >>> sim.run_until(5.0)
        >>> fired
        [2.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Events in the queue (cancelled ones until they are popped)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Args:
            delay: Non-negative offset from the current time.
            callback: Zero-argument callable.
            priority: Tie-break among simultaneous events (lower first).
            name: Optional label carried on the event.

        Returns:
            Handle that can cancel the event.

        Raises:
            SimulationError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self._now + delay, callback, priority=priority, name=name)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``.

        Raises:
            SimulationError: If ``time`` precedes the current clock.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        event = Event(
            time=float(time),
            priority=priority,
            seq=next(self._seq),
            callback=callback,
            name=name,
        )
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule_many(self, timers: list) -> None:
        """:meth:`schedule_at` each ``(time, callback, name)`` in order, at
        priority 0: the same events and sequence numbers, put in the queue
        as one batch, with no handle (a batch's timers are never cancelled
        one by one).  A batch at least as large as the queue joins it by
        one heapify, a smaller one by a push each; either way they fire in
        ``(time, priority, seq)`` order.

        Raises:
            SimulationError: If a time precedes the current clock (then
                nothing is scheduled).
        """
        now, seq = self._now, self._seq
        for time, _, _ in timers:
            if time < now:
                raise SimulationError(f"cannot schedule at t={time} (now is t={now})")
        events = [Event(float(t), 0, next(seq), callback, name) for t, callback, name in timers]
        queue = self._queue
        if len(events) >= len(queue):
            queue += events
            heapq.heapify(queue)
        else:
            for event in events:
                heapq.heappush(queue, event)

    def clear(self) -> None:
        """Drop every pending event: nothing scheduled so far fires."""
        self._queue.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single earliest pending event.

        Returns:
            True if an event fired, False if the queue was empty.
        """
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Fire all events with time ≤ ``end_time`` and advance the clock.

        The clock ends exactly at ``end_time`` even if the queue drains
        earlier, so periodic reporting aligned to the horizon is easy.
        """
        if end_time < self._now:
            raise SimulationError(
                f"cannot run backwards to t={end_time} (now t={self._now})"
            )
        while self._queue and not self._peek_cancelled_pruned_empty():
            if self._queue[0].time > end_time:
                break
            self.step()
        self._now = max(self._now, end_time)

    def _peek_cancelled_pruned_empty(self) -> bool:
        """Drop leading cancelled events; return True if queue is empty."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return not self._queue


__all__ = [
    "Event",
    "EventHandle",
    "SimulationError",
    "Simulator",
]
