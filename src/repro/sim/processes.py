"""Reusable process abstractions on top of the event engine."""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventHandle, SimulationError, Simulator


class PeriodicProcess:
    """A restartable periodic activity bound to a simulator.

    Unlike :func:`repro.sim.engine.every`, this class supports
    start/stop/restart cycles and exposes how many times it has fired.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        name: str = "process",
        immediate: bool = False,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._name = name
        self._immediate = immediate
        self._handle: Optional[EventHandle] = None
        self._running = False
        self.fire_count = 0

    @property
    def period(self) -> float:
        """Interval between firings in seconds."""
        return self._period

    @property
    def running(self) -> bool:
        """Whether the process is currently scheduled."""
        return self._running

    def start(self) -> None:
        """Begin firing; the first firing is now (if ``immediate``) or one period out."""
        if self._running:
            return
        self._running = True
        delay = 0.0 if self._immediate else self._period
        self._handle = self._sim.schedule(delay, self._tick, name=self._name)

    def stop(self) -> None:
        """Cease firing (idempotent); :meth:`start` may be called again."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.fire_count += 1
        self._callback()
        if self._running:
            self._handle = self._sim.schedule(self._period, self._tick, name=self._name)


__all__ = ["PeriodicProcess"]
