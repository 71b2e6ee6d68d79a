"""The wall around a driver that may block (``drivers/walled.py``).

``DriverRegistry.register`` makes the one decision: a driver whose
class brings no async surface of its own is registered behind
``Walled``, every other driver as it is.  Behind the wall each
``*_async`` call runs on a worker thread, so the wrapper keeps the two
guards a second thread needs: a slice with a call in flight refuses
another, and a serial backend (``max_concurrent_installs == 1``) never
has two calls inside it at once.  These tests hang real workers on
``threading.Event``s, so the concurrency suite repeats them.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Dict

import pytest

from repro.drivers.adapters import CloudDriver, EpcDriver, RanDriver, TransportDriver
from repro.drivers.base import (
    BaseDriver,
    DomainSpec,
    DriverCapabilities,
    DriverError,
    Reservation,
    ReservationState,
)
from repro.drivers.mock import MockDriver
from repro.drivers.registry import DriverRegistry
from repro.drivers.walled import Walled
from repro.experiments.testbed import build_testbed
from tests.drivers.test_conformance import ThirdPartyDriver
from tests.drivers.test_planner import Blocking

#: Long enough for any worker to be parked on an event it waits for.
PATIENCE_S = 30.0

LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()), threading.Condition)


class Hooked(BaseDriver):
    """A backend that may block.  ``_do_prepare`` records how many
    prepares run at once (``peak``), waits on ``gate``, and then lingers
    up to ``linger_s`` unless a second prepare comes in beside it."""

    domain = "hooked"

    def __init__(self, max_concurrent_installs: int, linger_s: float = 0.0) -> None:
        super().__init__()
        self.caps = DriverCapabilities(
            domain=self.domain, max_concurrent_installs=max_concurrent_installs
        )
        self.linger_s = linger_s
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()
        self.overlapped = threading.Event()
        self.running = self.peak = 0
        self._count = threading.Lock()

    def capabilities(self) -> DriverCapabilities:
        return self.caps

    def _do_prepare(self, spec: DomainSpec) -> Dict[str, Any]:
        with self._count:
            self.running += 1
            self.peak = max(self.peak, self.running)
            if self.running > 1:
                self.overlapped.set()
        self.entered.set()
        try:
            self.gate.wait(timeout=PATIENCE_S)
            self.overlapped.wait(timeout=self.linger_s)
        finally:
            with self._count:
                self.running -= 1
        return {"hooked": spec.slice_id}

    def _do_rollback(self, reservation: Reservation) -> None:
        pass

    def _do_release(self, slice_id: str) -> None:
        pass

    def utilization(self) -> dict:
        return {"domain": self.domain}


def settle(registry: DriverRegistry, *futures) -> None:
    """Take in at the door whatever the workers post until every one of
    ``futures`` is resolved."""
    while not all(future.done() for future in futures):
        registry.run_posted(wait=PATIENCE_S)


class TestRegistryDecision:
    def test_only_a_driver_without_an_async_surface_is_walled(self):
        testbed = build_testbed()
        allocator = testbed.allocator
        unwalled = [
            RanDriver(allocator.ran),
            TransportDriver(allocator.transport),
            CloudDriver(allocator.cloud),
            EpcDriver(allocator.cloud.stack_of),
            MockDriver(),
        ]
        walled = [ThirdPartyDriver(), Blocking(domain="blocking")]
        registry = DriverRegistry(unwalled + walled)
        for driver in unwalled:
            assert registry.get(driver.domain) is driver
            assert driver.clock is registry.clock
        for inner in walled:
            wrapper = registry.get(inner.domain)
            assert isinstance(wrapper, Walled) and wrapper.inner is inner
            assert wrapper.domain == inner.domain
            assert wrapper.post == registry.post
            assert inner.clock is registry.clock
        assert registry.domains() == [driver.domain for driver in unwalled + walled]

    def test_an_explicit_wrapper_is_not_walled_twice(self):
        inner = ThirdPartyDriver()
        wrapper = Walled(inner)
        registry = DriverRegistry([wrapper])
        assert registry.get("thirdparty") is wrapper and wrapper.inner is inner

    def test_adapters_hold_no_lock(self, testbed):
        for domain in ("ran", "transport", "cloud", "epc"):
            adapter = testbed.registry.get(domain)
            assert not isinstance(adapter, Walled)
            held = {name for name, value in vars(adapter).items() if isinstance(value, LOCK_TYPES)}
            assert held == set(), f"{domain} adapter holds {held}"

    def test_an_unwrapped_driver_that_may_block_refuses_its_async_surface(self):
        driver = ThirdPartyDriver()
        spec = DomainSpec(slice_id="s", throughput_mbps=1.0)
        before = {thread.name for thread in threading.enumerate()}
        with pytest.raises(DriverError, match="Walled"):
            driver.prepare_async(spec)
        assert {thread.name for thread in threading.enumerate()} <= before
        assert driver.reservations() == [] and driver.utilization()["held_mbps"] == 0


class TestInFlightGuard:
    def test_a_slice_with_a_call_on_a_worker_refuses_a_second_call(self):
        """While a walled prepare of ``s`` hangs on its worker, a
        blocking prepare or release of ``s`` on the shard's thread fails
        fast; the straggler's PREPARED record then lands intact."""
        inner = Hooked(max_concurrent_installs=8)
        inner.gate.clear()
        registry = DriverRegistry([inner])
        walled = registry.get("hooked")
        spec = DomainSpec(slice_id="s", throughput_mbps=1.0)
        future = walled.prepare_async(spec)
        try:
            assert inner.entered.wait(timeout=PATIENCE_S)
            assert "hooked-prepare-async" in {t.name for t in threading.enumerate()}
            for call, argument in (("prepare", spec), ("release", "s")):
                with pytest.raises(DriverError) as refused:
                    getattr(walled, call)(argument)
                assert refused.value.message == (
                    "slice s already has an operation in flight "
                    f"(refusing concurrent {call})"
                )
            assert not future.done() and inner.reservations() == []
        finally:
            inner.gate.set()
        settle(registry, future)
        reservation = future.result(timeout=0)
        assert inner.reservations() == [reservation]
        assert reservation.state is ReservationState.PREPARED
        assert reservation.reservation_id == "hooked-res-000001"
        assert reservation.spec is spec and reservation.details == {"hooked": "s"}
        # The claim went with the straggler: the slice takes calls again.
        walled.commit(reservation)
        walled.release("s")
        assert reservation.state is ReservationState.RELEASED

    def test_the_claim_is_dropped_when_the_backend_refuses(self):
        walled = Walled(ThirdPartyDriver(capacity_mbps=1.0))
        spec = DomainSpec(slice_id="s", throughput_mbps=5.0)
        for _ in range(2):
            with pytest.raises(DriverError, match="does not fit"):
                walled.prepare(spec)


class TestSerialLock:
    @pytest.mark.parametrize(
        "cap, linger_s, peak",
        [
            # A serial backend: had the second prepare not waited for
            # the first, it would have come in while the first lingered.
            (1, 0.25, 1),
            # A cap of 8: the first lingers until the second joins it.
            (8, PATIENCE_S, 2),
        ],
    )
    def test_prepares_overlap_only_above_a_cap_of_one(self, cap, linger_s, peak):
        inner = Hooked(max_concurrent_installs=cap, linger_s=linger_s)
        registry = DriverRegistry([inner])
        walled = registry.get("hooked")
        futures = [
            walled.prepare_async(DomainSpec(slice_id=f"s{i}", throughput_mbps=1.0))
            for i in range(2)
        ]
        settle(registry, *futures)
        assert [f.result(timeout=0).slice_id for f in futures] == ["s0", "s1"]
        assert inner.peak == peak


def test_many_workers_in_one_driver_lose_no_record():
    """Behind a wall with a cap above 1, ``BaseDriver``'s lock-free
    table takes 32 workers at once, thread switches forced as often as
    the interpreter allows: no reservation or id is lost or doubled, and
    the commits and releases that follow leave the table empty."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        inner = Hooked(max_concurrent_installs=64)
        registry = DriverRegistry([inner])
        walled = registry.get("hooked")
        specs = [DomainSpec(slice_id=f"s{i}", throughput_mbps=1.0) for i in range(32)]
        prepares = [walled.prepare_async(spec) for spec in specs]
        settle(registry, *prepares)
        held = [future.result(timeout=0) for future in prepares]
        assert sorted(r.reservation_id for r in held) == [
            f"hooked-res-{i:06d}" for i in range(1, 33)
        ]
        assert {r.slice_id for r in inner.reservations()} == {spec.slice_id for spec in specs}
        commits = [walled.commit_async(reservation) for reservation in held]
        settle(registry, *commits)
        releases = [walled.release_async(spec.slice_id) for spec in specs]
        settle(registry, *releases)
        assert [f.exception(timeout=0) for f in commits + releases] == [None] * 64
        assert inner.reservations() == []
        assert all(r.state is ReservationState.RELEASED for r in held)
    finally:
        sys.setswitchinterval(interval)
