"""Two-phase multi-domain install transaction.

The broker admits a slice only when it embeds end-to-end; a partial
install (radio reserved, path reserved, but no compute) must leave
*zero* residue.  Each install attempt runs the reserve-then-commit
discipline across every registered driver:

1. **Prepare phase** — drivers are prepared in registry order; each
   returns a PREPARED :class:`~repro.drivers.base.Reservation`.
2. **Validation** — an optional cross-domain check (e.g. the end-to-end
   latency budget) runs over the full reservation set.
3. **Commit phase** — every reservation is committed, again in order.

Any :class:`~repro.drivers.base.DriverError` in any phase unwinds the
attempt in reverse order: PREPARED reservations are rolled back,
already-COMMITTED ones released, each noted in the outcome's
``rollbacks``.  Unwind is best-effort: a failing compensation is
reported in the final error but never stops the remaining unwinds.

:func:`install_sequentially`, the blocking one of the two install
executors, runs the attempts on the calling thread; a window goes to
the event-driven :class:`~repro.drivers.planner.BatchInstallPlanner`,
which keeps the same discipline over the drivers' futures (both compose
their failure messages with :func:`compose_unwind_error`).  Both answer
an :class:`InstallJob` with an :class:`InstallOutcome` holding its
rollback notices until the install's fate is known.  A live slice's
other unwinds live here too: the resize that compensates a refusal
(:func:`resize_everywhere`) and the releases a backend refused
(:class:`StuckReleases`).
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.drivers.base import (
    DomainDriver,
    DomainSpec,
    DriverAbsentError,
    DriverError,
    Reservation,
    ReservationState,
)
from repro.drivers.registry import DriverRegistry

#: States in which a reservation still holds resources in its backend.
HOLDING = (ReservationState.PREPARED, ReservationState.COMMITTED)


def undo_async(driver: DomainDriver, reservation: Reservation) -> Future:
    """Launch what takes a holding reservation back out of its backend:
    release if it was COMMITTED, rollback while still PREPARED."""
    if reservation.state is ReservationState.COMMITTED:
        return driver.release_async(reservation.slice_id)
    return driver.rollback_async(reservation)


class TransactionError(RuntimeError):
    """A multi-domain install failed (after full unwind); names the
    domain whose prepare/validate/commit step broke the transaction."""

    def __init__(self, domain: str, message: str) -> None:
        super().__init__(f"[{domain}] {message}")
        self.domain = domain
        self.message = message


class OperationTimeout(TransactionError):
    """A southbound operation exceeded its per-operation deadline
    (``DriverCapabilities.operation_timeout_s``): the domain is treated
    as hung, the owning job unwinds, and the straggling operation is
    compensated in the background when it eventually completes."""


def compose_unwind_error(
    exc: Exception, failed_domain: str, unwind_errors: List[str]
) -> TransactionError:
    """The one place a transaction-failure message (including
    compensation failures) is composed — shared by the blocking
    :func:`install_sequentially` and the async planner's
    deadline-covered unwind chain.  A deadline failure keeps its type
    through the unwind, so callers can tell "domain hung" from "domain
    refused"."""
    if isinstance(exc, (DriverError, TransactionError)):
        message = exc.message
    else:
        message = f"unexpected {type(exc).__name__}: {exc}"
    if unwind_errors:
        message += f" (unwind also failed: {'; '.join(unwind_errors)})"
    error_cls = OperationTimeout if isinstance(exc, OperationTimeout) else TransactionError
    return error_cls(getattr(exc, "domain", failed_domain), message)


@dataclass
class InstallJob:
    """One slice's install work: attempts tried in order until one
    commits end-to-end.

    Attributes:
        slice_id: The slice being installed (labels outcomes/unwinds).
        attempts: One spec-map per install attempt — typically one per
            candidate datacenter, each covering every registered domain.
        validate: Optional cross-domain check run over the full
            reservation set of an attempt before commit (raise
            :class:`DriverError` to abort the attempt).
        tag: Opaque caller correlation (e.g. the admission index).
        span_context: Optional :class:`~repro.obs.span.SpanContext` of
            the caller's per-job span.  Carried through the job state
            machine so every southbound operation span parents
            correctly however many jobs' continuations interleave — the
            explicit propagation that replaces thread-locals in the
            async engine.
    """

    slice_id: str
    attempts: Sequence[Mapping[str, DomainSpec]]
    validate: Optional[Callable[[Dict[str, Reservation]], None]] = None
    tag: Any = None
    span_context: Any = None


@dataclass
class InstallOutcome:
    """What became of one :class:`InstallJob`.

    Exactly one of ``reservations`` (success: the COMMITTED reservation
    per domain) and ``error`` (every attempt failed) is set.
    ``rollbacks`` holds the unwind notifications the job buffered —
    the caller decides whether to surface them (the orchestrator only
    does for failed installs).  ``trail`` is the planner's audit trail
    of the job: ``(kind, domain, reservation_id)`` for every reservation
    transition that *landed* — ``prepared`` / ``committed`` /
    ``rolled_back`` / ``released`` — across all attempts, in landing
    order; the orchestrator journals it as one record per job.  The
    blocking executor keeps none (``None``).
    """

    job: InstallJob
    reservations: Optional[Dict[str, Reservation]] = None
    error: Optional[TransactionError] = None
    rollbacks: List[Tuple[str, Reservation, str]] = field(default_factory=list)
    trail: Optional[List[Tuple[str, str, str]]] = None

    @property
    def ok(self) -> bool:
        return self.reservations is not None


def install_sequentially(registry: DriverRegistry, job: InstallJob) -> InstallOutcome:
    """The single-request executor: one blocking prepare → validate →
    commit per attempt of ``job``, on the calling thread, until one
    commits end-to-end.  Every attempt needs one spec per *registered*
    domain — a missing or surplus one fails it before anything is
    prepared — and a failed attempt unwinds every domain it touched
    before the next is tried.  The rollback notices are held in the
    outcome, as the planner holds a job's; the caller surfaces them for
    a failed install only."""
    outcome = InstallOutcome(job)
    domains = registry.domains()
    for specs in job.attempts:
        missing = [d for d in domains if d not in specs]
        surplus = [d for d in specs if d not in domains]
        if missing or surplus:
            outcome.error = TransactionError(
                "orchestrator",
                f"spec/domain mismatch (missing={missing}, surplus={surplus})",
            )
            continue
        prepared: List[Tuple[DomainDriver, Reservation]] = []
        reservations: Dict[str, Reservation] = {}
        failed_domain = "orchestrator"
        try:
            for domain in domains:
                failed_domain = domain
                driver = registry.get(domain)
                reservations[domain] = driver.prepare(specs[domain])
                prepared.append((driver, reservations[domain]))
            failed_domain = "orchestrator"
            if job.validate is not None:
                job.validate(reservations)
            for driver, reservation in prepared:
                failed_domain = driver.domain
                driver.commit(reservation)
        except Exception as exc:
            # Any failure unwinds — a third-party driver raising
            # something other than DriverError included.
            unwind_errors = _unwind(prepared, str(exc), outcome.rollbacks)
            outcome.error = compose_unwind_error(exc, failed_domain, unwind_errors)
            continue
        outcome.reservations, outcome.error = reservations, None
        break
    return outcome


def _unwind(
    prepared: List[Tuple[DomainDriver, Reservation]],
    reason: str,
    rollbacks: List[Tuple[str, Reservation, str]],
) -> List[str]:
    """Best-effort reverse unwind of ``(driver, reservation)`` pairs —
    COMMITTED ones released, PREPARED ones rolled back, each noted in
    ``rollbacks``.  Returns compensation failures."""
    errors: List[str] = []
    for driver, reservation in reversed(prepared):
        try:
            if reservation.state is ReservationState.COMMITTED:
                driver.release(reservation.slice_id)
            elif reservation.state is ReservationState.PREPARED:
                driver.rollback(reservation)
            else:  # already unwound — nothing to do
                continue
        except Exception as exc:  # a failing compensation never stops
            errors.append(f"[{driver.domain}] {exc}")  # the remaining unwinds
            continue
        rollbacks.append((driver.domain, reservation, reason))
    return errors


def resize_everywhere(
    registry: DriverRegistry, slice_id: str, *, tenant_id: str, throughput_mbps: float,
    max_latency_ms: float, duration_s: float, effective_fraction: float,
) -> Dict[str, Reservation]:
    """Re-dimension ``slice_id`` in every resize-capable domain holding
    it, in registry order, to the SLA and fraction given (each keeps its
    vCPUs and attributes); returns the new reservations by domain.  A
    refusing domain rolls the already-resized ones back to their
    previous spec, so the domains never disagree about the slice's size,
    and the refusal is raised — as is an invalid size, or a slice no
    domain holds."""
    if not 0.0 < effective_fraction <= 1.0:
        raise DriverError(
            "orchestrator",
            f"effective fraction must be in (0, 1], got {effective_fraction}",
        )
    if throughput_mbps <= 0:
        raise DriverError(
            "orchestrator", f"throughput must be positive, got {throughput_mbps}"
        )
    resized: Dict[str, Reservation] = {}
    done: List[Tuple[DomainDriver, DomainSpec]] = []  # (driver, previous spec)
    for driver in registry.drivers():
        if not driver.capabilities().supports_resize:
            continue
        reservation = driver.reservation_of(slice_id)
        if reservation is None:
            continue
        old_spec = reservation.spec
        new_spec = DomainSpec(
            slice_id, tenant_id, throughput_mbps, max_latency_ms, duration_s,
            effective_fraction, old_spec.vcpus, dict(old_spec.attributes),
        )
        try:
            resized[driver.domain] = driver.resize(slice_id, new_spec)
        except DriverError:
            # Compensate: restore the previous size everywhere.
            for undone, prev_spec in reversed(done):
                try:
                    undone.resize(slice_id, prev_spec)
                except DriverError:  # pragma: no cover - best effort
                    continue
            raise
        done.append((driver, old_spec))
    if not resized:
        # No domain actually re-dimensioned anything — succeeding would
        # let the caller rewrite its books with no backing change.
        raise DriverError("orchestrator", f"slice {slice_id} is not allocated")
    return resized


class StuckReleases:
    """Frees slices in every domain, and keeps the releases a backend
    refused: the refusing driver keeps its reservation COMMITTED, and
    :meth:`retry` asks again until the capacity is actually freed."""

    def __init__(self, registry: DriverRegistry) -> None:
        self.registry = registry
        #: slice id → domains whose backend refused to release it.
        self.stuck: Dict[str, List[str]] = {}

    def release(
        self, slice_id: str, domains: Optional[List[str]] = None
    ) -> List[Tuple[str, DriverError]]:
        """Free ``slice_id`` in ``domains`` (every domain, newest-registered
        first, by default).  A domain holding nothing, or no longer
        registered, is skipped; each real backend refusal is returned,
        and its domain kept for :meth:`retry`."""
        refused = []
        for domain in domains or reversed(self.registry.domains()):
            if domain not in self.registry:
                continue  # driver unregistered — nothing left to free
            try:
                self.registry.get(domain).release(slice_id)
            except DriverAbsentError:
                continue  # holds nothing, or freed out-of-band
            except DriverError as exc:
                refused.append((domain, exc))
        if refused:
            self.stuck[slice_id] = [domain for domain, _ in refused]
        else:
            self.stuck.pop(slice_id, None)
        return refused

    def retry(self) -> List[Tuple[str, List[str]]]:
        """Ask every refusing backend again; returns ``(slice id,
        domains)`` for each slice now freed everywhere."""
        return [
            (slice_id, domains)
            for slice_id, domains in list(self.stuck.items())
            if not self.release(slice_id, domains)
        ]


__all__ = [
    "InstallJob",
    "InstallOutcome",
    "OperationTimeout",
    "StuckReleases",
    "TransactionError",
    "compose_unwind_error",
    "install_sequentially",
    "resize_everywhere",
    "undo_async",
]
