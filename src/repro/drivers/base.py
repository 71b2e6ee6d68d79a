"""Uniform southbound contract every domain backend implements.

The orchestrator of the paper's Fig. 1 sits above *heterogeneous*
domain controllers — RAN, transport, cloud, vEPC — each of which grew
its own vocabulary (``install_slice`` / ``reserve_path`` / ``deploy``).
:class:`DomainDriver` is the single southbound API that hides those
vocabularies behind a transactional reserve-then-commit discipline:

    prepare(spec) ──> Reservation[PREPARED]
                                 │
             commit(reservation) │ rollback(reservation)
                                 ▼
            Reservation[COMMITTED]   Reservation[ROLLED_BACK]
                                 │
               release(slice_id) │
                                 ▼
            Reservation[RELEASED]

Whether a spec *would* fit is the placement planner's question
(:meth:`~repro.core.allocation.MultiDomainAllocator.probe`), not the
driver's: a driver answers by preparing or refusing.

``prepare`` *holds* resources in the domain (a failed multi-domain
install can still be unwound without side effects leaking), ``commit``
makes the hold permanent, ``rollback`` undoes a hold, ``release`` frees
a committed slice.  Backends without native two-phase semantics (all of
the simulator controllers) implement ``prepare`` as the real reservation
and ``rollback`` as the compensating release — the classic pattern for
non-transactional southbound elements.

:class:`BaseDriver` supplies the reservation bookkeeping and lifecycle
state machine so concrete drivers only write the five ``_do_*`` hooks.
"""

from __future__ import annotations

import abc
import contextlib
import enum
import itertools
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional, Set, Tuple

from repro.obs import NOOP_OBS


class DriverError(RuntimeError):
    """Raised on any southbound driver failure; names the domain."""

    def __init__(self, domain: str, message: str) -> None:
        super().__init__(f"[{domain}] {message}")
        self.domain = domain
        self.message = message


class DriverAbsentError(DriverError):
    """The slice holds nothing in this domain (a benign miss, so
    best-effort sweeps can skip it — unlike a real backend failure)."""


class ReservationState(enum.Enum):
    """Lifecycle of one domain reservation (see module docstring)."""

    PREPARED = "prepared"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"
    RELEASED = "released"


@dataclass(frozen=True)
class DomainSpec:
    """What a slice asks of one domain, in domain-neutral terms.

    Attributes:
        slice_id: Owning slice.
        tenant_id: Owning tenant (propagated into events/telemetry).
        throughput_mbps: SLA downlink throughput.
        max_latency_ms: End-to-end latency bound of the SLA.
        duration_s: Requested slice lifetime.
        effective_fraction: Overbooking shrinkage in (0, 1].
        vcpus: Compute footprint (cloud-facing domains).
        attributes: Domain-specific context the orchestrator resolved
            (e.g. ``plmn``/``enb_id`` for RAN, ``src``/``dst``/
            ``max_delay_ms`` for transport, ``dc_id`` for cloud).
    """

    slice_id: str
    tenant_id: str = "anonymous"
    throughput_mbps: float = 0.0
    max_latency_ms: float = float("inf")
    duration_s: float = 0.0
    effective_fraction: float = 1.0
    vcpus: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Reservation:
    """One domain's hold (then commitment) for a slice.

    Attributes:
        reservation_id: Unique id within the driver.
        domain: Issuing domain.
        slice_id: Owning slice.
        spec: The spec the reservation was prepared against.
        state: Lifecycle state (see :class:`ReservationState`).
        details: Domain-specific results (chosen cell, path, stack id,
            native allocation objects) the orchestrator composes into
            its end-to-end view.
    """

    reservation_id: str
    domain: str
    slice_id: str
    spec: DomainSpec
    state: ReservationState = ReservationState.PREPARED
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DriverCapabilities:
    """What a backend can do, so the orchestrator adapts per domain.

    Attributes:
        domain: Domain name the driver serves (registry key).
        resource_units: Units the domain accounts in (``"prbs"``,
            ``"mbps"``, ``"vcpus"`` — empty for control-plane-only
            domains like the vEPC binding).
        supports_resize: Whether :meth:`DomainDriver.resize` works
            (re-dimensioning/overbooking); drivers without it are
            skipped by the reconfiguration loop.
        supports_repair: Whether :meth:`DomainDriver.repair` can
            re-establish a degraded slice (self-healing loop).
        transactional: True when the backend has *native* two-phase
            semantics; False when ``rollback`` is compensating.
        max_concurrent_installs: How many install operations the backend
            can absorb *simultaneously*.  ``1`` (the default) declares a
            serial backend: :class:`BaseDriver` then holds its
            serialization lock across every lifecycle call, so wrapping
            a non-thread-safe controller stays safe under the concurrent
            batch planner.  A driver declaring ``> 1`` promises its
            ``_do_*`` hooks are thread-safe; the planner bounds its
            in-flight operations with a semaphore of this size.
        prepare_after: Domains whose ``prepare`` must complete before
            this one's can start within a single install (e.g. the vEPC
            binding needs the cloud stack to exist).  The batch planner
            turns this into prepare *waves*; domains with no dependency
            between them are prepared in parallel.
        operation_timeout_s: Per-operation deadline for the async
            lifecycle (``prepare_async``/``commit_async``/…).  When an
            operation's future has not completed within this budget the
            batch planner treats the domain as hung: the *job* unwinds
            cleanly (its other domains are rolled back / released) while
            the hung operation is compensated in the background the
            moment it eventually completes.  ``None`` (the default)
            means no deadline — the planner then falls back to its own
            configured default, or waits forever like the blocking path.
    """

    domain: str
    resource_units: Tuple[str, ...] = ()
    supports_resize: bool = False
    supports_repair: bool = False
    transactional: bool = False
    max_concurrent_installs: int = 1
    prepare_after: Tuple[str, ...] = ()
    operation_timeout_s: Optional[float] = None


def deferred_call(fn: Callable[..., Any], *args: Any) -> Tuple[Future, Callable[[], None]]:
    """A pending future and the call that resolves it with ``fn(*args)``
    (its result or its error, never raised) — unless it was cancelled
    first, and then ``fn`` never runs.  A future already marked running
    (a backend that took the call and hung) stays so."""
    future: Future = Future()

    def run() -> None:
        if not (future.running() or future.set_running_or_notify_cancel()):
            return  # cancelled before the backend was touched
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # resolve, never propagate
            future.set_exception(exc)

    return future, run


class DomainDriver(abc.ABC):
    """Abstract southbound driver every domain backend implements."""

    #: Domain name; also the :class:`~repro.drivers.registry.DriverRegistry` key.
    domain: str = "unknown"

    #: Control-plane observability sink.  The class default is the
    #: shared no-op singleton (zero overhead); an observability-enabled
    #: orchestrator rebinds its registry's drivers to the live registry
    #: so serial-lock wait/hold times are histogrammed per domain.
    obs = NOOP_OBS

    @abc.abstractmethod
    def capabilities(self) -> DriverCapabilities:
        """Static description of what this backend supports.

        Read on every lifecycle call (the serial-lock guard, ``resize``,
        the planner's per-batch snapshot), so return a prebuilt
        instance rather than building one per call."""

    @abc.abstractmethod
    def prepare(self, spec: DomainSpec) -> Reservation:
        """Hold resources for ``spec``; returns a PREPARED reservation.

        Raises:
            DriverError: When the domain cannot serve the spec.
        """

    @abc.abstractmethod
    def commit(self, reservation: Reservation) -> None:
        """Finalize a PREPARED reservation (state → COMMITTED)."""

    @abc.abstractmethod
    def rollback(self, reservation: Reservation) -> None:
        """Undo a PREPARED reservation (state → ROLLED_BACK)."""

    @abc.abstractmethod
    def resize(self, slice_id: str, spec: DomainSpec) -> Reservation:
        """Re-dimension a COMMITTED slice to ``spec`` in place.

        Covers both tenant-requested scaling (new ``throughput_mbps``)
        and the overbooking loop (new ``effective_fraction``).

        Raises:
            DriverError: If unsupported, unknown slice, or no fit.
        """

    @abc.abstractmethod
    def release(self, slice_id: str) -> None:
        """Free everything the domain holds for ``slice_id``.

        Raises:
            DriverError: If the slice holds nothing here.
        """

    @abc.abstractmethod
    def health(self, slice_id: str) -> Dict[str, Any]:
        """Domain-local health of a slice; must contain ``"healthy"``.

        Raises:
            DriverError: If the slice holds nothing here.
        """

    @abc.abstractmethod
    def utilization(self) -> dict:
        """Domain telemetry snapshot (``GET /v1/domains/{name}``)."""

    def reservation_of(self, slice_id: str) -> Optional[Reservation]:
        """The live (PREPARED/COMMITTED) reservation for a slice, when
        the driver tracks one — part of the pluggable contract because
        the orchestrator's resize sweep consults it.  Drivers built on
        :class:`BaseDriver` get tracking for free; direct subclasses
        that keep no records return None and are skipped by resizes.
        """
        return None

    def list_reservations(self) -> List[Reservation]:
        """Every live (PREPARED/COMMITTED) reservation the backend
        currently holds — the *ground truth* crash recovery reconciles
        the journal against (re-adopting COMMITTED reservations,
        compensating orphans; see :class:`~repro.store.recovery.
        RecoveryManager`).

        Drivers built on :class:`BaseDriver` get this from the shared
        bookkeeping; direct subclasses that keep no records return an
        empty list, which recovery reads as "this domain can vouch for
        nothing" (journaled slices then cannot be re-adopted whole).
        """
        return []

    def degraded(self) -> bool:
        """Whether any slice held here *may* be unhealthy right now.

        The self-healing loop asks a repair-capable driver once per
        epoch and polls :meth:`health` per slice only on ``True``.  The
        default cannot tell, so it is always polled; a backend that
        knows in O(1) that nothing is down overrides this.
        """
        return True

    def repair(self, slice_id: str) -> Reservation:
        """Re-establish a degraded slice (e.g. re-route its path).

        Only meaningful when ``capabilities().supports_repair``; the
        default implementation refuses.

        Raises:
            DriverError: Always, unless a subclass overrides.
        """
        raise DriverError(self.domain, "driver does not support repair")

    # ------------------------------------------------------------------
    # Async lifecycle (futures-based southbound)
    # ------------------------------------------------------------------
    # The batch planner drives installs through these non-blocking
    # variants: each returns a ``concurrent.futures.Future`` that
    # resolves to the blocking method's result (or raises its error).
    # *How* the future gets resolved is the driver's own choice, made
    # by overriding ``_shim_async`` (or the four methods themselves):
    #
    # - The default below knows nothing about the backend behind the
    #   blocking methods, so it assumes the worst — a call that may
    #   really block — and hands it to a daemon worker: a hung call
    #   parks that worker, never the planner, which bounds it with the
    #   one southbound deadline in wall time.
    # - A driver that knows its backend is an in-memory object that
    #   cannot block (the four simulator adapters) resolves the future
    #   inline, on the caller's thread, before returning it.
    # - A natively asynchronous backend resolves it from its own
    #   completion machinery: ``MockDriver`` from events on ``clock``.
    #
    # Contract notes shared by all four:
    # - The future may be cancelled while still pending; a backend that
    #   honours cancellation must then perform no side effects.
    # - Callers bound waiting via ``DriverCapabilities.
    #   operation_timeout_s``; the worker hand-off itself never times
    #   out (the blocking call keeps running on its thread, and the
    #   planner compensates the straggler when it eventually completes).
    # - Done-callbacks run on whichever thread resolved the future —
    #   possibly the caller's own, before ``*_async`` returns.

    #: The southbound clock (a :class:`~repro.sim.engine.Simulator`);
    #: :meth:`DriverRegistry.register` binds the registry's own.
    clock: Any = None

    def _shim_async(self, label: str, fn: Callable[..., Any], *args: Any) -> Future:
        """Run blocking ``fn(*args)`` on a daemon worker, resolving a
        future — the async surface of a driver that may block."""
        future, run = deferred_call(fn, *args)
        threading.Thread(
            target=run, name=f"{self.domain}-{label}-async", daemon=True
        ).start()
        return future

    def prepare_async(self, spec: DomainSpec) -> Future:
        """Non-blocking :meth:`prepare`; resolves to the Reservation."""
        return self._shim_async("prepare", self.prepare, spec)

    def commit_async(self, reservation: Reservation) -> Future:
        """Non-blocking :meth:`commit`; resolves to ``None``."""
        return self._shim_async("commit", self.commit, reservation)

    def rollback_async(self, reservation: Reservation) -> Future:
        """Non-blocking :meth:`rollback`; resolves to ``None``."""
        return self._shim_async("rollback", self.rollback, reservation)

    def release_async(self, slice_id: str) -> Future:
        """Non-blocking :meth:`release`; resolves to ``None``."""
        return self._shim_async("release", self.release, slice_id)


class BaseDriver(DomainDriver):
    """Reservation bookkeeping + state machine shared by all drivers.

    Subclasses implement the ``_do_*`` hooks against their backend and
    never touch the lifecycle rules:

    - ``prepare`` refuses a second reservation for a live slice,
    - ``commit``/``rollback`` only accept PREPARED reservations,
    - ``release`` only accepts COMMITTED slices,
    - ``release``, ``resize`` and ``health`` of a slice the driver holds
      no reservation for are :class:`DriverAbsentError`, always — the
      reservation table is the truth; the backend is never probed for
      state the table does not know.

    Locking discipline (a driver may be called at once from a planner
    draining a window, from another driver's completion thread
    compensating a straggler, and from direct callers):

    - ``_lock`` guards the reservation table and the in-flight set; it
      is held only around bookkeeping, never across a backend call.
    - ``_serial_lock`` is held across the *whole* lifecycle operation —
      including the ``_do_*`` backend call — whenever the driver
      declares ``max_concurrent_installs == 1``.  Drivers wrapping one
      shared backend (cloud + EPC over one controller) may be handed
      the same lock so the controller sees one caller at a time.
    - Drivers declaring ``max_concurrent_installs > 1`` run their
      ``_do_*`` hooks without the serialization lock and must make them
      thread-safe; per-slice races are still excluded by the in-flight
      set (a second concurrent prepare/commit/release of the same slice
      fails fast instead of corrupting the record).
    """

    def __init__(self, serial_lock: Optional[threading.RLock] = None) -> None:
        self._reservations: Dict[str, Reservation] = {}
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._serial_lock = serial_lock or threading.RLock()
        self._in_flight: Set[str] = set()

    def _backend_guard(self) -> ContextManager:
        """The context held across a lifecycle operation: the shared
        serialization lock for serial backends, nothing for backends
        that declared concurrent capacity.

        With observability enabled the serial lock — the hot lock of
        every single-capacity backend — is wrapped so its wait and hold
        times land in the ``driver.serial_lock.{wait,hold}`` histograms
        (labelled by domain)."""
        if self.capabilities().max_concurrent_installs <= 1:
            obs = self.obs
            if obs.enabled:
                return obs.timed_lock(
                    self._serial_lock, "driver.serial_lock", label=self.domain
                )
            return self._serial_lock
        return contextlib.nullcontext()

    def _claim(self, slice_id: str, operation: str) -> None:
        """Mark ``slice_id`` as having a lifecycle call in flight (call
        under ``_lock``); a concurrent second call fails fast."""
        if slice_id in self._in_flight:
            raise DriverError(
                self.domain,
                f"slice {slice_id} already has an operation in flight "
                f"(refusing concurrent {operation})",
            )
        self._in_flight.add(slice_id)

    def _unclaim(self, slice_id: str) -> None:
        with self._lock:
            self._in_flight.discard(slice_id)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _do_prepare(self, spec: DomainSpec) -> Dict[str, Any]:
        """Perform the hold; returns the reservation ``details``."""

    def _do_commit(self, reservation: Reservation) -> None:
        """Finalize the hold (default: nothing — prepare did the work)."""

    @abc.abstractmethod
    def _do_rollback(self, reservation: Reservation) -> None:
        """Compensate the hold."""

    @abc.abstractmethod
    def _do_release(self, slice_id: str) -> None:
        """Free a committed slice on the backend."""

    def _do_resize(self, slice_id: str, spec: DomainSpec,
                   reservation: Reservation) -> Dict[str, Any]:
        """Re-dimension on the backend; returns updated details."""
        raise DriverError(self.domain, "driver does not support resize")

    # ------------------------------------------------------------------
    # Contract implementation
    # ------------------------------------------------------------------
    def reservation_of(self, slice_id: str) -> Optional[Reservation]:
        """The live (PREPARED/COMMITTED) reservation for a slice."""
        with self._lock:
            return self._reservations.get(slice_id)

    def reservations(self) -> List[Reservation]:
        """All live reservations (point-in-time snapshot)."""
        with self._lock:
            return list(self._reservations.values())

    def list_reservations(self) -> List[Reservation]:
        """Recovery ground truth — the shared bookkeeping *is* the
        backend's reservation table for every driver built on this
        base class."""
        return self.reservations()

    def prepare(self, spec: DomainSpec) -> Reservation:
        with self._backend_guard():
            with self._lock:
                if spec.slice_id in self._reservations:
                    raise DriverError(
                        self.domain,
                        f"slice {spec.slice_id} already holds a reservation",
                    )
                self._claim(spec.slice_id, "prepare")
            try:
                details = self._do_prepare(spec)
                with self._lock:
                    reservation = Reservation(
                        reservation_id=f"{self.domain}-res-{next(self._ids):06d}",
                        domain=self.domain,
                        slice_id=spec.slice_id,
                        spec=spec,
                        state=ReservationState.PREPARED,
                        details=details,
                    )
                    self._reservations[spec.slice_id] = reservation
            finally:
                self._unclaim(spec.slice_id)
            return reservation

    def commit(self, reservation: Reservation) -> None:
        self._check_owned(reservation)
        with self._backend_guard():
            with self._lock:
                if reservation.state is not ReservationState.PREPARED:
                    raise DriverError(
                        self.domain,
                        f"cannot commit reservation in state {reservation.state.value}",
                    )
                self._claim(reservation.slice_id, "commit")
            try:
                self._do_commit(reservation)
                reservation.state = ReservationState.COMMITTED
            finally:
                self._unclaim(reservation.slice_id)

    def rollback(self, reservation: Reservation) -> None:
        self._check_owned(reservation)
        with self._backend_guard():
            with self._lock:
                if reservation.state is not ReservationState.PREPARED:
                    raise DriverError(
                        self.domain,
                        f"cannot roll back reservation in state {reservation.state.value}",
                    )
                self._claim(reservation.slice_id, "rollback")
            try:
                self._do_rollback(reservation)
                with self._lock:
                    reservation.state = ReservationState.ROLLED_BACK
                    self._reservations.pop(reservation.slice_id, None)
            finally:
                self._unclaim(reservation.slice_id)

    def release(self, slice_id: str) -> None:
        with self._backend_guard():
            with self._lock:
                reservation = self._reservations.get(slice_id)
                if reservation is None:
                    raise DriverAbsentError(
                        self.domain, f"slice {slice_id} holds nothing"
                    )
                if reservation.state is not ReservationState.COMMITTED:
                    raise DriverError(
                        self.domain,
                        f"cannot release reservation in state "
                        f"{reservation.state.value}",
                    )
                self._claim(slice_id, "release")
            # Free the backend *first*: if it fails, the reservation stays
            # COMMITTED so the caller can retry instead of stranding the
            # backend's capacity behind a forgotten record.
            try:
                self._do_release(slice_id)
                with self._lock:
                    self._reservations.pop(slice_id, None)
                    reservation.state = ReservationState.RELEASED
            finally:
                self._unclaim(slice_id)

    def resize(self, slice_id: str, spec: DomainSpec) -> Reservation:
        if not self.capabilities().supports_resize:
            raise DriverError(self.domain, "driver does not support resize")
        with self._backend_guard():
            with self._lock:
                reservation = self._reservations.get(slice_id)
                if reservation is None:
                    raise DriverAbsentError(
                        self.domain, f"slice {slice_id} holds nothing"
                    )
                self._claim(slice_id, "resize")
            try:
                details = self._do_resize(slice_id, spec, reservation)
                with self._lock:
                    reservation.spec = spec
                    reservation.details.update(details)
            finally:
                self._unclaim(slice_id)
            return reservation

    def health(self, slice_id: str) -> Dict[str, Any]:
        if self.reservation_of(slice_id) is None:
            raise DriverAbsentError(self.domain, f"slice {slice_id} holds nothing")
        return self._do_health(slice_id)

    def _do_health(self, slice_id: str) -> Dict[str, Any]:
        return {"domain": self.domain, "slice_id": slice_id, "healthy": True}

    def _check_owned(self, reservation: Reservation) -> None:
        if reservation.domain != self.domain:
            raise DriverError(
                self.domain,
                f"reservation {reservation.reservation_id} belongs to domain "
                f"{reservation.domain!r}",
            )


__all__ = [
    "BaseDriver",
    "DomainDriver",
    "DomainSpec",
    "DriverAbsentError",
    "DriverCapabilities",
    "DriverError",
    "Reservation",
    "ReservationState",
    "deferred_call",
]
