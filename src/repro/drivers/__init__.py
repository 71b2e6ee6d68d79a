"""Southbound domain-driver API.

A uniform, transactional contract between the orchestrator and every
domain backend:

- :mod:`repro.drivers.base` — the :class:`DomainDriver` ABC, the typed
  :class:`DomainSpec`/:class:`Reservation` dataclasses and the
  reservation lifecycle state machine.
- :mod:`repro.drivers.registry` — :class:`DriverRegistry`, the ordered
  pluggable mapping of domain name → driver, and its southbound clock.
- :mod:`repro.drivers.transaction` — :class:`InstallTransaction`, the
  two-phase prepare/commit coordinator with automatic rollback, the
  blocking single-request executor over it, and the resize and release
  loops that unwind a live slice.
- :mod:`repro.drivers.planner` — :class:`BatchInstallPlanner`, the
  event-driven (fleet-scale) install engine running batches of install
  jobs on one thread with per-driver concurrency caps.
- :mod:`repro.drivers.adapters` — drivers wrapping the simulator's RAN,
  transport, cloud and vEPC controllers (+ the default registry).
- :mod:`repro.drivers.mock` — an in-memory backend on the southbound
  clock: the conformance reference and the failure-injection harness.
"""

from repro.drivers.base import (
    BaseDriver,
    DomainDriver,
    DomainSpec,
    DriverCapabilities,
    DriverError,
    Reservation,
    ReservationState,
)
from repro.drivers.registry import DriverRegistry
from repro.drivers.transaction import InstallJob, InstallOutcome
from repro.drivers.transaction import InstallTransaction, TransactionError
from repro.drivers.planner import BatchInstallPlanner
from repro.drivers.adapters import (
    CloudDriver,
    EpcDriver,
    RanDriver,
    TransportDriver,
    build_default_registry,
)
from repro.drivers.mock import MockDriver

__all__ = [
    "BaseDriver",
    "BatchInstallPlanner",
    "CloudDriver",
    "DomainDriver",
    "DomainSpec",
    "DriverCapabilities",
    "DriverError",
    "DriverRegistry",
    "EpcDriver",
    "InstallJob",
    "InstallOutcome",
    "InstallTransaction",
    "MockDriver",
    "RanDriver",
    "Reservation",
    "ReservationState",
    "TransactionError",
    "TransportDriver",
    "build_default_registry",
]
