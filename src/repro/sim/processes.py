"""Reusable process abstractions on top of the event engine."""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventHandle, SimulationError, Simulator


class PeriodicProcess:
    """A restartable periodic activity bound to a simulator: it first
    fires one period after :meth:`start`, supports start/stop/restart
    cycles and counts how many times it has fired."""

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        name: str = "process",
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._name = name
        self._handle: Optional[EventHandle] = None
        self._running = False
        self.fire_count = 0

    def start(self) -> None:
        """Begin firing; the first firing is one period out."""
        if self._running:
            return
        self._running = True
        self._handle = self._sim.schedule(self._period, self._tick, name=self._name)

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
