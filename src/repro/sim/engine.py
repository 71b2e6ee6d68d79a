"""Core discrete-event simulation engine.

The queue is a heap of ``(time, priority, seq, callback)`` tuples.  The
sequence number makes every key unique, so events scheduled at the same
instant with the same priority fire in the order they were scheduled and
no two callbacks are ever compared; that total order makes every
experiment in this repository reproducible from its random seed alone.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


class Simulator:
    """Minimal but complete discrete-event simulator.

    The simulator owns the virtual clock.  Components schedule callbacks
    with :meth:`schedule` (relative delay) or :meth:`schedule_at`
    (absolute time) and the experiment driver advances the clock with
    :meth:`run_until` or :meth:`step`.  A scheduled event always fires
    once its instant is reached; :meth:`clear` drops all of them.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> sim.schedule(2.0, lambda: fired.append(sim.now))
        >>> sim.run_until(5.0)
        >>> fired
        [2.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple] = []
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
        """Events in the queue."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None], *, priority: int = 0) -> None:
        """Schedule ``callback`` (zero arguments) to fire ``delay`` seconds
        from now; among simultaneous events, lower ``priority`` fires first.

        Raises:
            SimulationError: If ``delay`` is negative (or NaN).
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        self.schedule_at(self._now + delay, callback, priority=priority)

    def schedule_at(self, time: float, callback: Callable[[], None], *, priority: int = 0) -> None:
        """Schedule ``callback`` at absolute simulation time ``time``.

        Raises:
            SimulationError: If ``time`` precedes the current clock (or is NaN).
        """
        if not time >= self._now:
            raise SimulationError(f"cannot schedule at t={time} (now is t={self._now})")
        heapq.heappush(self._queue, (float(time), priority, next(self._seq), callback))

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
        if not self._queue:
            return False
        self._now, _, _, callback = heapq.heappop(self._queue)
        self._events_processed += 1
        callback()
        return True

    def run_until(self, end_time: float) -> None:
        """Fire all events with time ≤ ``end_time`` and advance the clock.

        The clock ends exactly at ``end_time`` even if the queue drains
        earlier, so periodic reporting aligned to the horizon is easy.

        Raises:
            SimulationError: If ``end_time`` precedes the clock (or is NaN).
        """
        if not end_time >= self._now:
            raise SimulationError(f"cannot run backwards to t={end_time} (now t={self._now})")
        queue = self._queue
        while queue and queue[0][0] <= end_time:
            self.step()
        self._now = max(self._now, end_time)


__all__ = ["SimulationError", "Simulator"]
