"""In-memory mock backend honouring the full driver contract.

Three uses:

1. **Conformance reference** — the driver conformance suite runs the
   identical contract tests against :class:`MockDriver` and the four
   real adapters.  Like them, the mock is entered by its shard's one
   thread; a foreign thread reaches it only through the registry's
   door (``registry.post(mock.release_stall)``).
2. **Failure injection** — ``fail_next_prepare`` / ``fail_next_commit``
   / ``fail_next_release`` break a lifecycle call at a chosen domain,
   and :meth:`MockDriver.stall` hangs the next N operations until
   :meth:`MockDriver.release_stall`: an async future stays unresolved,
   while a blocking call fails with a :class:`DriverError` naming the
   stall rather than park its caller.
3. **A southbound on a virtual clock** — the ``*_latency_s`` knobs are
   a real controller's RPC time in seconds of ``clock``, the
   :class:`~repro.drivers.registry.DriverRegistry`'s
   :class:`~repro.sim.engine.Simulator` once registered: an async
   operation completes ``latency`` after now, a blocking one advances
   the clock by it.  Nothing sleeps and no thread starts, so deployment
   latency comes out exactly, run after run.

Capacity is a single scalar pool accounted in ``throughput_mbps``
(``effective_fraction`` applied), which is enough to exercise both the
"fits" and "does not fit" branches of every lifecycle path.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional

from repro.drivers.base import (
    BaseDriver,
    DomainSpec,
    DriverCapabilities,
    DriverError,
    Reservation,
    deferred_call,
)
from repro.sim.engine import Simulator


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
        self.clock = Simulator()
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
        # `_stall_kinds`, when set) stall until release_stall().
        self._stall_remaining = 0
        self._stall_kinds: Optional[frozenset] = None
        #: Completions of stalled async operations, in launch order.
        self._parked: List[Callable[[], None]] = []
        #: Operations that stalled so far (telemetry).
        self.stalled_ops = 0

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

        A stalled async operation resolves its future only on
        :meth:`release_stall` — a hung southbound controller.  A stalled
        blocking call raises :class:`DriverError` at once: its caller
        would wait on the very clock (or thread) that releases it.

        Args:
            count: How many operations to stall.
            kinds: Restrict which operations consume stall tokens
                (subset of ``{"prepare", "commit", "rollback",
                "release"}``); ``None`` stalls whichever comes next.
                This is how a hang *during the unwind* is driven: e.g.
                ``stall(kinds=("rollback",))`` lets the forward path
                run and hangs the compensation instead.
        """
        self._stall_remaining += int(count)
        self._stall_kinds = frozenset(kinds) if kinds is not None else None

    def release_stall(self) -> None:
        """End the stall: no further operation stalls, and every parked
        completion runs now, in launch order."""
        self._stall_remaining = 0
        parked, self._parked = self._parked, []
        for complete in parked:
            complete()

    def _takes_stall(self, kind: str) -> bool:
        """Consume one stall token if one is armed for ``kind``."""
        if self._stall_remaining <= 0 or (
            self._stall_kinds is not None and kind not in self._stall_kinds
        ):
            return False
        self._stall_remaining -= 1
        self.stalled_ops += 1
        return True

    # ------------------------------------------------------------------
    # Lifecycle on the clock
    # ------------------------------------------------------------------
    def _elapse(self, kind: str) -> None:
        """The southbound half of a blocking call: a stall fails it, and
        its latency passes on the clock before the bookkeeping runs."""
        if self._takes_stall(kind):
            raise DriverError(self.domain, f"{kind} stalled until release_stall()")
        latency_s = getattr(self, f"{kind}_latency_s", 0.0)
        if latency_s > 0:
            self.clock.run_until(self.clock.now + latency_s)

    def prepare(self, spec: DomainSpec) -> Reservation:
        self._elapse("prepare")
        return super().prepare(spec)

    def commit(self, reservation: Reservation) -> None:
        self._elapse("commit")
        super().commit(reservation)

    def rollback(self, reservation: Reservation) -> None:
        self._elapse("rollback")
        super().rollback(reservation)

    def release(self, slice_id: str) -> None:
        self._elapse("release")
        super().release(slice_id)

    def _shim_async(self, label: str, fn: Callable[..., Any], *args: Any) -> Future:
        """Native async completion: the bookkeeping of ``label`` runs
        when the clock reaches now + its latency (at once for none),
        or, when the operation stalls, on :meth:`release_stall`."""
        future, complete = deferred_call(getattr(super(), label), *args)
        latency_s = getattr(self, f"{label}_latency_s", 0.0)
        if self._takes_stall(label):
            # The backend took the call and hangs: no longer cancellable.
            future.set_running_or_notify_cancel()
            self._parked.append(complete)
            return future
        if latency_s > 0:
            self.clock.schedule(latency_s, complete)
        else:
            complete()
        return future

    @property
    def held_mbps(self) -> float:
        """Total capacity currently held or committed."""
        return sum(self._held.values())

    def _demand(self, spec: DomainSpec) -> float:
        return spec.throughput_mbps * spec.effective_fraction

    def _do_prepare(self, spec: DomainSpec) -> Dict[str, Any]:
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
        self.commits += 1
        if self.fail_next_commit > 0:
            self.fail_next_commit -= 1
            # The failed commit loses the hold; the reservation stays
            # PREPARED so the transaction's unwind rolls it back.
            self._held.pop(reservation.slice_id, None)
            raise DriverError(self.domain, "injected commit failure")

    def _do_rollback(self, reservation: Reservation) -> None:
        self.rollbacks += 1
        self._held.pop(reservation.slice_id, None)

    def _do_release(self, slice_id: str) -> None:
        self.releases += 1
        if self.fail_next_release > 0:
            self.fail_next_release -= 1
            raise DriverError(self.domain, "injected release failure")
        if slice_id not in self._held:
            raise DriverError(self.domain, f"slice {slice_id} holds nothing")
        del self._held[slice_id]

    def _do_resize(self, slice_id: str, spec: DomainSpec,
                   reservation: Reservation) -> Dict[str, Any]:
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
        return {
            "domain": self.domain,
            "capacity_mbps": self.capacity_mbps,
            "held_mbps": sum(self._held.values()),
            "active_reservations": len(self._held),
        }


__all__ = ["MockDriver"]
