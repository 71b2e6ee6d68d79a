"""In-memory mock backend honouring the full driver contract.

Three uses:

1. **Conformance reference** — the driver conformance suite runs the
   identical contract tests against :class:`MockDriver` and the four
   real adapters, so any future backend (a real SDN controller, an
   alternate simulator) has an executable specification to pass.
2. **Failure injection** — ``fail_next_prepare`` / ``fail_next_commit``
   let tests (and chaos experiments) break the install transaction at a
   chosen domain and verify the rollback discipline leaves zero
   residue in the other domains.
3. **Concurrency harness** — the mock declares
   ``max_concurrent_installs > 1`` and implements thread-safe hooks, so
   the batch planner's parallel prepare path (and the concurrency
   conformance suite) can hammer it from a thread pool.  The
   ``*_latency_s`` knobs emulate the southbound RPC time a real
   controller would cost; the sleep happens *outside* the pool lock, so
   concurrent operations genuinely overlap (this is what the batched
   install benchmarks measure).
4. **Native async backend** — the mock overrides the futures-based
   lifecycle (``prepare_async``/``commit_async``/``release_async``)
   with *true* asynchronous completion: the emulated southbound latency
   elapses on a background daemon timer that then performs the quick
   bookkeeping and resolves the future, instead of parking a worker
   thread in ``time.sleep``.  A future cancelled before its timer fires
   never touches the backend at all.  The :meth:`stall` chaos hook
   makes the next N operations hang — blocking callers park on a gate,
   async futures simply never resolve — until :meth:`release_stall`,
   which is how the "one hung domain, N healthy jobs" scenario of the
   async planner is driven in tests and in benchmark D8d.

Capacity is a single scalar pool accounted in ``throughput_mbps``
(``effective_fraction`` applied), which is enough to exercise both the
"fits" and "does not fit" branches of every lifecycle path.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, Optional

from repro.drivers.base import (
    BaseDriver,
    DomainSpec,
    DriverCapabilities,
    DriverError,
    Reservation,
)


class MockDriver(BaseDriver):
    """A self-contained driver with a scalar capacity pool."""

    def __init__(
        self,
        domain: str = "mock",
        capacity_mbps: float = 1_000.0,
        max_concurrent_installs: int = 4,
        prepare_latency_s: float = 0.0,
        commit_latency_s: float = 0.0,
        release_latency_s: float = 0.0,
        prepare_after: tuple = (),
        operation_timeout_s: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.domain = domain
        self.capacity_mbps = float(capacity_mbps)
        self.max_concurrent_installs = int(max_concurrent_installs)
        self.prepare_latency_s = float(prepare_latency_s)
        self.commit_latency_s = float(commit_latency_s)
        self.release_latency_s = float(release_latency_s)
        self.prepare_after = tuple(prepare_after)
        self.operation_timeout_s = operation_timeout_s
        #: Guards the capacity pool, the counters and the injection
        #: knobs — *not* held while sleeping, so concurrency overlaps.
        self._pool_lock = threading.RLock()
        self._held: Dict[str, float] = {}  # slice_id -> held mbps
        #: Remaining prepare calls to fail (failure injection).
        self.fail_next_prepare = 0
        #: Remaining commit calls to fail (failure injection).
        self.fail_next_commit = 0
        #: Remaining release calls to fail (failure injection).
        self.fail_next_release = 0
        self.prepares = 0
        self.commits = 0
        self.rollbacks = 0
        self.releases = 0
        # Stall injection: the next `_stall_remaining` operations (of
        # `_stall_kinds`, when set) hang on `_stall_gate` until
        # release_stall() opens it.
        self._stall_gate = threading.Event()
        self._stall_gate.set()
        self._stall_remaining = 0
        self._stall_kinds: Optional[frozenset] = None
        #: Operations that hit the stall gate so far (telemetry).
        self.stalled_ops = 0
        # Set on threads completing an async operation: the emulated
        # latency already elapsed on the timer, so `_nap` skips it.
        self._async_ctx = threading.local()

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------
    def capabilities(self) -> DriverCapabilities:
        return DriverCapabilities(
            domain=self.domain,
            resource_units=("mbps",),
            supports_resize=True,
            supports_repair=True,
            max_concurrent_installs=self.max_concurrent_installs,
            prepare_after=self.prepare_after,
            operation_timeout_s=self.operation_timeout_s,
        )

    # ------------------------------------------------------------------
    # Chaos: stall injection
    # ------------------------------------------------------------------
    def stall(self, count: int = 1, kinds: Optional[tuple] = None) -> None:
        """Make the next ``count`` lifecycle operations hang.

        A stalled operation parks on an internal gate *after* claiming
        its in-flight slot: blocking callers block, async futures stay
        unresolved — exactly a hung southbound controller.  Nothing
        completes until :meth:`release_stall`.

        Args:
            count: How many operations to stall.
            kinds: Restrict which operations consume stall tokens
                (subset of ``{"prepare", "commit", "rollback",
                "release"}``); ``None`` stalls whichever comes next.
                This is how a hang *during the unwind* is driven: e.g.
                ``stall(kinds=("rollback",))`` lets the forward path
                run and hangs the compensation instead.
        """
        with self._pool_lock:
            self._stall_remaining += int(count)
            self._stall_kinds = frozenset(kinds) if kinds is not None else None
            self._stall_gate.clear()

    def release_stall(self) -> None:
        """Open the stall gate: parked operations resume and complete,
        and no further operations stall."""
        with self._pool_lock:
            self._stall_remaining = 0
            self._stall_gate.set()

    @property
    def stalled(self) -> bool:
        """Whether some upcoming operation would hit the stall gate."""
        with self._pool_lock:
            return self._stall_remaining > 0

    def _maybe_stall(self, kind: str) -> None:
        """Consume one stall token (if armed and the kind matches) and
        park until released.  Called at the top of every ``_do_*``
        hook, outside the pool lock, so a stalled operation never
        wedges healthy ones."""
        with self._pool_lock:
            if self._stall_remaining <= 0:
                return
            if self._stall_kinds is not None and kind not in self._stall_kinds:
                return
            self._stall_remaining -= 1
            self.stalled_ops += 1
            gate = self._stall_gate
        gate.wait()

    def _nap(self, seconds: float) -> None:
        """Emulate southbound RPC latency — skipped on async completion
        threads, where the delay already elapsed on the timer."""
        if seconds > 0 and not getattr(self._async_ctx, "active", False):
            time.sleep(seconds)

    # ------------------------------------------------------------------
    # Native async lifecycle
    # ------------------------------------------------------------------
    def _async_op(self, label: str, latency_s: float,
                  fn: Callable[..., Any], *args: Any) -> Future:
        """True async completion: the emulated latency elapses on a
        daemon timer, then the quick bookkeeping runs and resolves the
        future.  A future cancelled before the timer fires never
        touches the backend."""
        future: Future = Future()

        def complete() -> None:
            if not future.set_running_or_notify_cancel():
                return  # cancelled while pending — no side effects
            self._async_ctx.active = True
            try:
                result = fn(*args)
            except BaseException as exc:
                future.set_exception(exc)
            else:
                future.set_result(result)
            finally:
                self._async_ctx.active = False

        if latency_s > 0:
            timer = threading.Timer(latency_s, complete)
            timer.daemon = True
            timer.name = f"{self.domain}-{label}-timer"
            timer.start()
        elif self.stalled:
            # Zero latency but armed to stall: completing inline would
            # park the *caller* — hang a background thread instead.
            threading.Thread(
                target=complete, name=f"{self.domain}-{label}-stalled", daemon=True
            ).start()
        else:
            complete()
        return future

    def prepare_async(self, spec: DomainSpec) -> Future:
        return self._async_op("prepare", self.prepare_latency_s, self.prepare, spec)

    def commit_async(self, reservation: Reservation) -> Future:
        return self._async_op("commit", self.commit_latency_s, self.commit, reservation)

    def rollback_async(self, reservation: Reservation) -> Future:
        return self._async_op("rollback", 0.0, self.rollback, reservation)

    def release_async(self, slice_id: str) -> Future:
        return self._async_op("release", self.release_latency_s, self.release, slice_id)

    @property
    def held_mbps(self) -> float:
        """Total capacity currently held or committed."""
        with self._pool_lock:
            return sum(self._held.values())

    def _demand(self, spec: DomainSpec) -> float:
        return spec.throughput_mbps * spec.effective_fraction

    def _do_prepare(self, spec: DomainSpec) -> Dict[str, Any]:
        self._maybe_stall("prepare")
        self._nap(self.prepare_latency_s)
        with self._pool_lock:
            self.prepares += 1
            if self.fail_next_prepare > 0:
                self.fail_next_prepare -= 1
                raise DriverError(self.domain, "injected prepare failure")
            demand = self._demand(spec)
            free = self.capacity_mbps - sum(self._held.values())
            if demand > free + 1e-9:
                raise DriverError(
                    self.domain,
                    f"{demand:.1f} Mb/s requested but only {free:.1f} free",
                )
            self._held[spec.slice_id] = demand
            return {"held_mbps": demand}

    def _do_commit(self, reservation: Reservation) -> None:
        self._maybe_stall("commit")
        self._nap(self.commit_latency_s)
        with self._pool_lock:
            self.commits += 1
            if self.fail_next_commit > 0:
                self.fail_next_commit -= 1
                # The failed commit loses the hold; the reservation stays
                # PREPARED so the transaction's unwind rolls it back.
                self._held.pop(reservation.slice_id, None)
                raise DriverError(self.domain, "injected commit failure")

    def _do_rollback(self, reservation: Reservation) -> None:
        self._maybe_stall("rollback")
        with self._pool_lock:
            self.rollbacks += 1
            self._held.pop(reservation.slice_id, None)

    def _do_release(self, slice_id: str) -> None:
        self._maybe_stall("release")
        self._nap(self.release_latency_s)
        with self._pool_lock:
            self.releases += 1
            if self.fail_next_release > 0:
                self.fail_next_release -= 1
                raise DriverError(self.domain, "injected release failure")
            if slice_id not in self._held:
                raise DriverError(self.domain, f"slice {slice_id} holds nothing")
            del self._held[slice_id]

    def _do_resize(self, slice_id: str, spec: DomainSpec,
                   reservation: Reservation) -> Dict[str, Any]:
        with self._pool_lock:
            if slice_id not in self._held:
                raise DriverError(self.domain, f"slice {slice_id} holds nothing")
            new_demand = self._demand(spec)
            others = sum(self._held.values()) - self._held[slice_id]
            if others + new_demand > self.capacity_mbps + 1e-9:
                raise DriverError(self.domain, "resize does not fit")
            self._held[slice_id] = new_demand
            return {"held_mbps": new_demand}

    def repair(self, slice_id: str) -> Reservation:
        reservation = self.reservation_of(slice_id)
        if reservation is None:
            raise DriverError(self.domain, f"slice {slice_id} holds nothing")
        return reservation

    def utilization(self) -> dict:
        with self._pool_lock:
            return {
                "domain": self.domain,
                "capacity_mbps": self.capacity_mbps,
                "held_mbps": sum(self._held.values()),
                "active_reservations": len(self._held),
            }


__all__ = ["MockDriver"]
