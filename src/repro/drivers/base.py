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
import enum
import itertools
import logging
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


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


@dataclass
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
            can absorb *simultaneously*; the planner bounds a driver's
            in-flight operations with a token pool of this size.  ``1``
            (the default) declares a serial backend: behind ``Walled``
            its serial lock is held across every lifecycle call, so a
            worker never overlaps another call into the backend.
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
            moment it eventually completes; a recovery's orphan undo is
            bound by it too.  ``None`` (the default) means no deadline:
            the planner waits forever, like the blocking path.
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


class ResolvedFuture(Future):
    """A ``Future`` born finished, holding the result or ``Exception`` of
    a call already run on the caller's thread.  ``Future.__init__`` never
    runs: nothing waits on, cancels or resolves a finished future, so no
    ``Condition`` is built or taken.  It answers as a finished ``Future``
    does: done, not cancellable, ``set_*`` raise ``InvalidStateError``,
    and a done-callback runs at once (one that raises is logged on the
    ``concurrent.futures`` logger and swallowed).  ``wait`` and
    ``as_completed`` take a stock ``Future``'s lock, so they take only
    those; the southbound calls neither."""

    def __init__(self, result: Any = None, exception: Optional[BaseException] = None) -> None:
        self._result = result
        self._exception = exception

    def __repr__(self) -> str:
        verb, outcome = ("returned", self._result) if self._exception is None else (
            "raised", self._exception)
        return (f"<{type(self).__name__} at {id(self):#x} state=finished "
                f"{verb} {type(outcome).__name__}>")

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False

    cancelled = running = cancel

    def result(self, timeout: Optional[float] = None) -> Any:
        if self._exception is None:
            return self._result
        try:
            raise self._exception
        finally:
            self = None  # the traceback's frame must not hold the future

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        return self._exception

    def add_done_callback(self, fn: Callable[[Future], Any]) -> None:
        try:
            fn(self)
        except Exception:
            logging.getLogger("concurrent.futures").exception(
                "exception calling callback for %r", self)

    def set_running_or_notify_cancel(self) -> bool:
        raise RuntimeError("Future in unexpected state")

    def set_result(self, outcome: Any) -> None:
        raise InvalidStateError(f"finished: {self!r}")

    set_exception = set_result


class DomainDriver(abc.ABC):
    """Abstract southbound driver every domain backend implements.

    Its ``*_async`` methods go through :meth:`_shim_async`; a driver
    that does not override it may block, and runs behind
    :class:`~repro.drivers.walled.Walled`."""

    #: Domain name; also the :class:`~repro.drivers.registry.DriverRegistry` key.
    domain: str = "unknown"

    @abc.abstractmethod
    def capabilities(self) -> DriverCapabilities:
        """Static description of what this backend supports.

        Read over and over (``resize``, the resize sweep, the heal loop,
        the planner's per-batch snapshot and, behind :class:`~repro.
        drivers.walled.Walled`, every lifecycle call), so return a
        prebuilt instance rather than building one per call."""

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
    # variants: each returns a ``concurrent.futures.Future`` resolving
    # to the blocking method's result (or raising its error).  How it
    # resolves is the driver's choice, made in ``_shim_async``: inline on
    # the caller's thread into a ``ResolvedFuture`` (the in-process
    # adapters), or from the backend's own completions (``MockDriver``,
    # on ``clock``).  A driver that overrides nothing may block, and
    # runs behind :class:`~repro.drivers.walled.Walled`'s worker.
    # A pending future may be cancelled; a backend that honours that
    # performs no side effects.  Callers bound waiting with
    # ``DriverCapabilities.operation_timeout_s``.  Done-callbacks run on
    # the shard's thread — possibly the caller's, before ``*_async``
    # returns.

    #: The southbound clock (a :class:`~repro.sim.engine.Simulator`);
    #: :meth:`DriverRegistry.register` binds the registry's own.
    clock: Any = None

    def _shim_async(self, label: str, fn: Callable[..., Any], *args: Any) -> Future:
        """Marks a backend that may block, so it runs only behind
        ``Walled``; reached unwrapped, it refuses rather than block."""
        raise DriverError(
            self.domain, f"{label}_async on a driver that may block: wrap it in Walled"
        )

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

    It takes no lock: a shard is entered by one thread at a time.
    Behind :class:`~repro.drivers.walled.Walled` with a cap above 1,
    several workers may be inside one driver at once, and it stays safe
    because every table access is a single dict operation, which
    CPython makes atomic, and ``Walled``'s in-flight guard keeps two
    threads off any one slice's record.
    """

    def __init__(self) -> None:
        self._reservations: Dict[str, Reservation] = {}
        self._ids = itertools.count(1)

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
        return self._reservations.get(slice_id)

    def list_reservations(self) -> List[Reservation]:
        """All live reservations (point-in-time snapshot): recovery's
        ground truth, as this table *is* the backend's."""
        return list(self._reservations.values())

    reservations = list_reservations

    def prepare(self, spec: DomainSpec) -> Reservation:
        if spec.slice_id in self._reservations:
            raise DriverError(
                self.domain, f"slice {spec.slice_id} already holds a reservation"
            )
        details = self._do_prepare(spec)
        reservation = Reservation(
            reservation_id=f"{self.domain}-res-{next(self._ids):06d}",
            domain=self.domain,
            slice_id=spec.slice_id,
            spec=spec,
            state=ReservationState.PREPARED,
            details=details,
        )
        self._reservations[spec.slice_id] = reservation
        return reservation

    def commit(self, reservation: Reservation) -> None:
        self._check_owned(reservation)
        if reservation.state is not ReservationState.PREPARED:
            raise DriverError(
                self.domain,
                f"cannot commit reservation in state {reservation.state.value}",
            )
        self._do_commit(reservation)
        reservation.state = ReservationState.COMMITTED

    def rollback(self, reservation: Reservation) -> None:
        self._check_owned(reservation)
        if reservation.state is not ReservationState.PREPARED:
            raise DriverError(
                self.domain,
                f"cannot roll back reservation in state {reservation.state.value}",
            )
        self._do_rollback(reservation)
        reservation.state = ReservationState.ROLLED_BACK
        self._reservations.pop(reservation.slice_id, None)

    def release(self, slice_id: str) -> None:
        reservation = self._reservations.get(slice_id)
        if reservation is None:
            raise DriverAbsentError(self.domain, f"slice {slice_id} holds nothing")
        if reservation.state is not ReservationState.COMMITTED:
            raise DriverError(
                self.domain,
                f"cannot release reservation in state {reservation.state.value}",
            )
        # Free the backend *first*: if it fails, the reservation stays
        # COMMITTED so the caller can retry instead of stranding the
        # backend's capacity behind a forgotten record.
        self._do_release(slice_id)
        self._reservations.pop(slice_id, None)
        reservation.state = ReservationState.RELEASED

    def resize(self, slice_id: str, spec: DomainSpec) -> Reservation:
        if not self.capabilities().supports_resize:
            raise DriverError(self.domain, "driver does not support resize")
        reservation = self._reservations.get(slice_id)
        if reservation is None:
            raise DriverAbsentError(self.domain, f"slice {slice_id} holds nothing")
        details = self._do_resize(slice_id, spec, reservation)
        reservation.spec = spec
        reservation.details.update(details)
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
    "ResolvedFuture",
    "deferred_call",
]
