"""Two-phase multi-domain install transaction.

The broker admits a slice only when it embeds end-to-end; a partial
install (radio reserved, path reserved, but no compute) must leave
*zero* residue.  :class:`InstallTransaction` runs the reserve-then-
commit discipline across every registered driver:

1. **Prepare phase** — drivers are prepared in registry order; each
   returns a PREPARED :class:`~repro.drivers.base.Reservation`.
2. **Validation** — an optional cross-domain check (e.g. the end-to-end
   latency budget) runs over the full reservation set.
3. **Commit phase** — every reservation is committed, again in order.

Any :class:`~repro.drivers.base.DriverError` in any phase unwinds the
transaction in reverse order: PREPARED reservations are rolled back,
already-COMMITTED ones released.  The ``on_rollback`` callback fires
per unwound domain so the orchestrator can emit rollback events on the
northbound feed.  Unwind is best-effort: a failing compensation is
reported in the final error but never stops the remaining unwinds.

This is the blocking one of the two install executors: the orchestrator
runs one transaction per staged attempt, on the calling thread, when it
installs a single request.  A window of requests goes to the
event-driven :class:`~repro.drivers.planner.BatchInstallPlanner`
instead, which keeps the same discipline over the drivers' futures and
composes its failure messages through :func:`compose_unwind_error`.
Neither executor knows what distinguishes one attempt from the next.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.drivers.base import (
    DomainDriver,
    DomainSpec,
    DriverError,
    Reservation,
    ReservationState,
)
from repro.drivers.registry import DriverRegistry

#: Callback fired for each unwound reservation: (domain, reservation, reason).
RollbackHook = Callable[[str, Reservation, str], None]


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
    :meth:`InstallTransaction.run` and the async planner's
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


class InstallTransaction:
    """Prepare/commit coordinator over a :class:`DriverRegistry`."""

    def __init__(
        self,
        registry: DriverRegistry,
        on_rollback: Optional[RollbackHook] = None,
    ) -> None:
        self.registry = registry
        self.on_rollback = on_rollback

    def run(
        self,
        specs: Mapping[str, DomainSpec],
        validate: Optional[Callable[[Dict[str, Reservation]], None]] = None,
    ) -> Dict[str, Reservation]:
        """Execute the transaction; returns COMMITTED reservations by domain.

        Args:
            specs: One :class:`DomainSpec` per *registered* domain; a
                missing or surplus domain is a caller bug and fails the
                transaction before anything is prepared.
            validate: Optional cross-domain check run after all prepares
                (raise :class:`DriverError` to abort and unwind).

        Raises:
            TransactionError: On any failure, after unwinding every
                already-prepared/committed domain.
        """
        domains = self.registry.domains()
        missing = [d for d in domains if d not in specs]
        surplus = [d for d in specs if d not in domains]
        if missing or surplus:
            raise TransactionError(
                "orchestrator",
                f"spec/domain mismatch (missing={missing}, surplus={surplus})",
            )
        prepared: List[Tuple[DomainDriver, Reservation]] = []
        reservations: Dict[str, Reservation] = {}
        failed_domain = "orchestrator"
        try:
            for domain in domains:
                failed_domain = domain
                driver = self.registry.get(domain)
                reservations[domain] = driver.prepare(specs[domain])
                prepared.append((driver, reservations[domain]))
            failed_domain = "orchestrator"
            if validate is not None:
                validate(reservations)
            for driver, reservation in prepared:
                failed_domain = driver.domain
                driver.commit(reservation)
        except Exception as exc:
            # Any failure unwinds — a third-party driver raising
            # something other than DriverError included.
            unwind_errors = self.unwind(prepared, reason=str(exc))
            raise compose_unwind_error(exc, failed_domain, unwind_errors) from exc
        return reservations

    def unwind(
        self, prepared: List[Tuple[DomainDriver, Reservation]], reason: str
    ) -> List[str]:
        """Best-effort reverse unwind of ``(driver, reservation)`` pairs —
        COMMITTED ones released, PREPARED ones rolled back, each firing
        ``on_rollback``.  Returns compensation failures."""
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
            if self.on_rollback is not None:
                self.on_rollback(driver.domain, reservation, reason)
        return errors


__all__ = [
    "InstallTransaction",
    "OperationTimeout",
    "RollbackHook",
    "TransactionError",
    "compose_unwind_error",
]
