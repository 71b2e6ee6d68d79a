"""The wall around a driver whose backend may block.

``DriverRegistry.register`` puts every driver whose class brings no
async surface of its own inside a :class:`Walled`: its ``*_async`` calls
run on daemon workers that post each resolution through the registry's
door, so a blocking backend never parks the shard's thread.  As the one
place a second thread enters a driver, it guards it: a slice with a call
in flight refuses another, and a serial backend takes one at a time,
a call waiting its turn no longer than the driver's
``operation_timeout_s``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from functools import partial
from typing import Any, Callable, Optional, Set

from repro.drivers.base import DomainDriver, DomainSpec, DriverError, Reservation


def _inner(name: str) -> Callable[..., Any]:
    return lambda self, *args: getattr(self.inner, name)(*args)


class Walled(DomainDriver):
    """``inner`` behind the worker hand-off, the in-flight guard and, for
    ``max_concurrent_installs == 1``, the serial lock; the rest delegates."""

    #: The door, bound by ``DriverRegistry.register``; unregistered,
    #: a worker resolves its future itself.
    post: Optional[Callable[[Callable[[], None]], None]] = None

    capabilities = _inner("capabilities")
    health = _inner("health")
    utilization = _inner("utilization")
    reservation_of = _inner("reservation_of")
    list_reservations = _inner("list_reservations")
    degraded = _inner("degraded")
    repair = _inner("repair")

    def __init__(self, inner: DomainDriver) -> None:
        self.inner = inner
        self.domain = inner.domain
        self._serial = threading.Lock()
        self._claims = threading.Lock()
        self._in_flight: Set[str] = set()

    def _shim_async(self, label: str, fn: Callable[..., Any], *args: Any) -> Future:
        """Run blocking ``fn(*args)`` on a daemon worker, which posts the
        future's resolution.  A future cancelled before the worker
        started never touches the backend."""
        future: Future = Future()
        post = self.post

        def work() -> None:
            if not future.set_running_or_notify_cancel():
                return
            try:
                resolve = partial(future.set_result, fn(*args))
            except BaseException as exc:  # resolve, never propagate
                resolve = partial(future.set_exception, exc)
            if post is None:
                resolve()
            else:
                post(resolve)

        threading.Thread(target=work, name=f"{self.domain}-{label}-async", daemon=True).start()
        return future

    def _guarded(self, operation: str, slice_id: str, *args: Any) -> Any:
        """``inner.<operation>(*args)``, ``slice_id`` claimed.  A serial
        backend's call waits its turn up to ``operation_timeout_s`` (with
        none, as long as it takes, as the planner waits) and then fails."""
        with self._claims:
            if slice_id in self._in_flight:
                raise DriverError(
                    self.domain,
                    f"slice {slice_id} already has an operation in flight "
                    f"(refusing concurrent {operation})",
                )
            self._in_flight.add(slice_id)
        try:
            call = getattr(self.inner, operation)
            capabilities = self.inner.capabilities()
            if capabilities.max_concurrent_installs > 1:
                return call(*args)
            deadline_s = capabilities.operation_timeout_s
            if not self._serial.acquire(timeout=-1 if deadline_s is None else deadline_s):
                raise DriverError(
                    self.domain,
                    f"serial backend busy: {operation} of slice {slice_id} "
                    f"waited {deadline_s} s behind the call in flight",
                )
            try:
                return call(*args)
            finally:
                self._serial.release()
        finally:
            self._in_flight.discard(slice_id)

    def prepare(self, spec: DomainSpec) -> Reservation:
        return self._guarded("prepare", spec.slice_id, spec)

    def commit(self, reservation: Reservation) -> None:
        self._guarded("commit", reservation.slice_id, reservation)

    def rollback(self, reservation: Reservation) -> None:
        self._guarded("rollback", reservation.slice_id, reservation)

    def release(self, slice_id: str) -> None:
        self._guarded("release", slice_id, slice_id)

    def resize(self, slice_id: str, spec: DomainSpec) -> Reservation:
        return self._guarded("resize", slice_id, slice_id, spec)


__all__ = ["Walled"]
