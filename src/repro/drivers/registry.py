"""Pluggable registry of southbound domain drivers.

The orchestrator's lifecycle operations (install, resize, release,
heal) go through the registry, not the controllers.  Registration
order is *install order*: the two-phase install transaction prepares
domains in the order they were registered and unwinds them in reverse,
so register ingress-first (RAN → transport → cloud → EPC in the
default wiring).  Any backend honouring the
:class:`~repro.drivers.base.DomainDriver` contract — a real SDN
controller adapter, an alternate simulator, a mock — plugs in with one
``register`` call; note that *placement planning* (cell/DC selection,
admission free vectors) still consults the allocator's topology views,
so fully replacing the RAN/cloud backend also needs a matching
placement provider (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.drivers.base import DomainDriver, DriverError
from repro.drivers.walled import Walled
from repro.sim.engine import Simulator


class DriverRegistry:
    """Ordered mapping of domain name → :class:`DomainDriver`.

    Like the rest of its shard's control plane, a registry is entered
    by one thread at a time, so it takes no lock.  It owns the two
    things its drivers share with that thread:

    - the southbound ``clock`` (a :class:`~repro.sim.engine.Simulator`,
      apart from the orchestrator's): mock completions and planner
      deadlines are its events;
    - the *door*, the shard's one thread-safe entry: :meth:`post` queues
      a call from any thread, and whoever drains the shard (a batch,
      :meth:`~repro.drivers.planner.BatchInstallPlanner.drain_events`)
      runs it with :meth:`run_posted`.  A walled driver's worker posts
      its future's resolution here.

    ``register`` decides which drivers are walled and binds both.
    """

    def __init__(self, drivers: Optional[List[DomainDriver]] = None) -> None:
        self.clock = Simulator()
        self._drivers: Dict[str, DomainDriver] = {}
        self._posted: deque = deque()
        self._door = threading.Condition()
        for driver in drivers or []:
            self.register(driver)

    def post(self, fn: Callable[[], None]) -> None:
        """Queue ``fn`` for the thread draining this shard (any thread
        may call this)."""
        with self._door:
            self._posted.append(fn)
            self._door.notify()

    def run_posted(self, wait: Optional[float] = 0.0) -> None:
        """Run everything posted, in posting order, on the calling
        thread; with nothing posted, first wait up to ``wait`` seconds
        (``None``: until something is)."""
        posted = self._posted
        if not posted:
            if wait is not None and wait <= 0:
                return
            with self._door:
                if not posted:
                    self._door.wait(wait)
        while posted:
            with self._door:
                fn = posted.popleft()
            fn()

    def register(self, driver: DomainDriver, replace: bool = False) -> DomainDriver:
        """Add a driver under its ``domain`` name.

        A driver whose class keeps :meth:`DomainDriver._shim_async` may
        block: it goes inside a :class:`~repro.drivers.walled.Walled`
        bound to the door.  ``clock`` is bound on the driver itself.

        Args:
            driver: The backend to plug in.
            replace: Allow swapping out an already-registered domain —
                the *previous* driver is then returned to the caller's
                care (it may still track reservations to drain).

        Returns:
            The displaced driver when one was replaced, else the one
            registered (``driver``, or its ``Walled`` wrapper).

        Raises:
            TypeError: If ``driver`` is not a :class:`DomainDriver`.
            DriverError: On a duplicate domain without ``replace``.
        """
        if not isinstance(driver, DomainDriver):
            raise TypeError(f"drivers must be DomainDriver instances, got {driver!r}")
        domain = driver.domain
        previous = self._drivers.get(domain)
        if previous is not None and not replace:
            raise DriverError(domain, "domain already registered")
        if type(driver)._shim_async is DomainDriver._shim_async:
            driver = Walled(driver)
        self._drivers[domain] = driver
        if isinstance(driver, Walled):
            driver.post = self.post
            driver.inner.clock = self.clock
        else:
            driver.clock = self.clock
        return previous if previous is not None else driver

    def get(self, domain: str) -> DomainDriver:
        """Lookup the driver serving ``domain``.

        Raises:
            DriverError: If unknown.
        """
        try:
            return self._drivers[domain]
        except KeyError:
            raise DriverError(domain, "domain not registered") from None

    def domains(self) -> List[str]:
        """Registered domain names, in registration (install) order."""
        return list(self._drivers)

    def drivers(self) -> List[DomainDriver]:
        """Registered drivers, in registration (install) order."""
        return list(self._drivers.values())

    def __contains__(self, domain: str) -> bool:
        return domain in self._drivers

    def __len__(self) -> int:
        return len(self._drivers)

    def capabilities(self) -> dict:
        """Per-domain capability summary (API/debugging surface)."""
        summary = {}
        for d in self.drivers():
            caps = d.capabilities()
            summary[d.domain] = {
                "resource_units": list(caps.resource_units),
                "supports_resize": caps.supports_resize,
                "supports_repair": caps.supports_repair,
                "transactional": caps.transactional,
                "max_concurrent_installs": caps.max_concurrent_installs,
            }
        return summary


__all__ = ["DriverRegistry"]
