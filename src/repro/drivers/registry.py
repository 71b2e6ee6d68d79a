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
from typing import Dict, List, Optional

from repro.drivers.base import DomainDriver, DriverError


class DriverRegistry:
    """Ordered mapping of domain name → :class:`DomainDriver`.

    Thread-safe: registration, lookup and iteration take an internal
    lock, and every iteration surface hands out a point-in-time
    *snapshot*, so a batch draining on one thread never observes a
    half-applied ``register``/``unregister`` from another.
    """

    def __init__(self, drivers: Optional[List[DomainDriver]] = None) -> None:
        self._drivers: Dict[str, DomainDriver] = {}
        self._lock = threading.RLock()
        for driver in drivers or []:
            self.register(driver)

    def register(self, driver: DomainDriver, replace: bool = False) -> DomainDriver:
        """Add a driver under its ``domain`` name.

        Args:
            driver: The backend to plug in.
            replace: Allow swapping out an already-registered domain —
                the *previous* driver is then returned to the caller's
                care (it may still track reservations to drain).

        Returns:
            The displaced driver when one was replaced, else ``driver``.

        Raises:
            TypeError: If ``driver`` is not a :class:`DomainDriver`.
            DriverError: On a duplicate domain without ``replace``.
        """
        if not isinstance(driver, DomainDriver):
            raise TypeError(f"drivers must be DomainDriver instances, got {driver!r}")
        domain = driver.domain
        with self._lock:
            previous = self._drivers.get(domain)
            if previous is not None and not replace:
                raise DriverError(domain, "domain already registered")
            self._drivers[domain] = driver
            return previous if previous is not None else driver

    def get(self, domain: str) -> DomainDriver:
        """Lookup the driver serving ``domain``.

        Raises:
            DriverError: If unknown.
        """
        with self._lock:
            try:
                return self._drivers[domain]
            except KeyError:
                raise DriverError(domain, "domain not registered") from None

    def domains(self) -> List[str]:
        """Registered domain names, in registration (install) order."""
        with self._lock:
            return list(self._drivers)

    def drivers(self) -> List[DomainDriver]:
        """Registered drivers, in registration (install) order."""
        with self._lock:
            return list(self._drivers.values())

    def __contains__(self, domain: str) -> bool:
        with self._lock:
            return domain in self._drivers

    def __len__(self) -> int:
        with self._lock:
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
