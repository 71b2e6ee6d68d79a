"""Driver conformance suite.

The *same* contract tests run against every registered backend — the
four adapters over the simulator controllers, the in-memory mock and a
minimal third-party driver that inherits every default — so any future
driver (a real SDN controller, an alternate simulator)
has an executable specification: build a ``DriverCase`` for it, add it
to ``CASES``, and the full lifecycle/state-machine surface is covered.

The concurrency half of the suite (``TestConcurrency``) interleaves N
worker threads of install/release transactions — with prepare failures
injected via each backend's own refusal path — and asserts the
zero-residue rollback invariant: after quiescence no reservations, no
PRBs, no paths, no flavors are leaked anywhere.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional

import pytest

from repro.cloud.controller import CloudController
from repro.cloud.datacenter import ComputeNode, Datacenter, DatacenterTier
from repro.drivers.adapters import CloudDriver, EpcDriver, RanDriver, TransportDriver
from repro.drivers.base import (
    BaseDriver,
    DomainDriver,
    DomainSpec,
    DriverCapabilities,
    DriverError,
    Reservation,
    ReservationState,
)
from repro.drivers.mock import MockDriver
from repro.epc.components import epc_template
from repro.experiments.testbed import build_testbed
from repro.core.slices import PlmnPool

_ids = itertools.count(1)


@dataclass
class DriverCase:
    """One backend under conformance test."""

    name: str
    driver: DomainDriver
    #: Build a *feasible* spec for a fresh slice id (performing any
    #: cross-domain setup the backend needs, e.g. the EPC's stack).
    new_spec: Callable[[], DomainSpec]
    #: Build a spec the backend must *refuse* at prepare time — the
    #: conformance suite's failure injection (None: backend cannot be
    #: made to refuse without external state).
    bad_spec: Optional[Callable[[], DomainSpec]] = None


def _common(slice_id: str, **overrides) -> dict:
    base = dict(
        slice_id=slice_id,
        tenant_id="tenant-a",
        throughput_mbps=10.0,
        max_latency_ms=50.0,
        duration_s=3_600.0,
        effective_fraction=1.0,
        vcpus=4.0,
    )
    base.update(overrides)
    return base


def _ran_case() -> DriverCase:
    testbed = build_testbed()
    pool = PlmnPool(size=32)
    driver = RanDriver(testbed.ran)

    def new_spec() -> DomainSpec:
        slice_id = f"slice-conf-{next(_ids):04d}"
        plmn = pool.allocate(slice_id)
        return DomainSpec(attributes={"plmn": plmn}, **_common(slice_id))

    def bad_spec() -> DomainSpec:
        # No cell can host 10 Gb/s worth of PRBs.
        slice_id = f"slice-conf-{next(_ids):04d}"
        plmn = pool.allocate(slice_id)
        return DomainSpec(
            attributes={"plmn": plmn},
            **_common(slice_id, throughput_mbps=10_000.0),
        )

    return DriverCase("ran", driver, new_spec, bad_spec)


def _transport_case() -> DriverCase:
    testbed = build_testbed()
    driver = TransportDriver(testbed.transport)

    def new_spec() -> DomainSpec:
        slice_id = f"slice-conf-{next(_ids):04d}"
        return DomainSpec(
            attributes={
                "src": "enb1-agg",
                "dst": "edge-dc-gw",
                "max_delay_ms": 10.0,
                "plmn_id": "00101",
            },
            **_common(slice_id),
        )

    def bad_spec() -> DomainSpec:
        # No path can carry 1 Tb/s.
        slice_id = f"slice-conf-{next(_ids):04d}"
        return DomainSpec(
            attributes={
                "src": "enb1-agg",
                "dst": "edge-dc-gw",
                "max_delay_ms": 10.0,
                "plmn_id": "00101",
            },
            **_common(slice_id, throughput_mbps=1_000_000.0),
        )

    return DriverCase("transport", driver, new_spec, bad_spec)


def _cloud_case() -> DriverCase:
    dc = Datacenter(
        "edge-dc",
        DatacenterTier.EDGE,
        nodes=[ComputeNode(f"n{i}", vcpus=64) for i in range(2)],
        gateway_node="edge-dc-gw",
        processing_delay_ms=0.5,
    )
    driver = CloudDriver(CloudController([dc]))

    def new_spec() -> DomainSpec:
        slice_id = f"slice-conf-{next(_ids):04d}"
        return DomainSpec(attributes={"dc_id": "edge-dc"}, **_common(slice_id))

    def bad_spec() -> DomainSpec:
        # Unknown datacenter: deploy must refuse.
        slice_id = f"slice-conf-{next(_ids):04d}"
        return DomainSpec(attributes={"dc_id": "no-such-dc"}, **_common(slice_id))

    return DriverCase("cloud", driver, new_spec, bad_spec)


def _epc_case() -> DriverCase:
    dc = Datacenter(
        "edge-dc",
        DatacenterTier.EDGE,
        nodes=[ComputeNode(f"n{i}", vcpus=64) for i in range(4)],
        gateway_node="edge-dc-gw",
        processing_delay_ms=0.5,
    )
    cloud = CloudController([dc])
    driver = EpcDriver(cloud.stack_of)

    def new_spec() -> DomainSpec:
        slice_id = f"slice-conf-{next(_ids):04d}"
        # The EPC binds to the slice's (already-deployed) cloud stack.
        if cloud.stack_of(slice_id) is None:
            cloud.deploy(slice_id, epc_template(slice_id), "edge-dc")
        return DomainSpec(attributes={"plmn_id": "00101"}, **_common(slice_id))

    def bad_spec() -> DomainSpec:
        # No cloud stack deployed for this slice: the bind must refuse.
        slice_id = f"slice-conf-{next(_ids):04d}"
        return DomainSpec(attributes={"plmn_id": "00101"}, **_common(slice_id))

    return DriverCase("epc", driver, new_spec, bad_spec)


def _mock_case() -> DriverCase:
    driver = MockDriver(domain="mock", capacity_mbps=100.0)

    def new_spec() -> DomainSpec:
        slice_id = f"slice-conf-{next(_ids):04d}"
        return DomainSpec(**_common(slice_id))

    def bad_spec() -> DomainSpec:
        # Over the mock's whole capacity pool.
        slice_id = f"slice-conf-{next(_ids):04d}"
        return DomainSpec(**_common(slice_id, throughput_mbps=10_000.0))

    return DriverCase("mock", driver, new_spec, bad_spec)


class ThirdPartyDriver(BaseDriver):
    """A backend this codebase knows nothing about: blocking ``_do_*``
    hooks over a scalar pool, and the async surface it *inherits* —
    ``DomainDriver``'s hand-off of every call to a worker thread."""

    domain = "thirdparty"

    def __init__(self, capacity_mbps: float = 100.0) -> None:
        super().__init__()
        self.capacity_mbps = capacity_mbps
        self._held = {}

    def capabilities(self) -> DriverCapabilities:
        return DriverCapabilities(domain=self.domain, resource_units=("mbps",))

    def _do_prepare(self, spec: DomainSpec) -> dict:
        if spec.throughput_mbps > self.capacity_mbps - sum(self._held.values()):
            raise DriverError(self.domain, f"{spec.throughput_mbps} Mb/s does not fit")
        self._held[spec.slice_id] = spec.throughput_mbps
        return {}

    def _do_rollback(self, reservation: Reservation) -> None:
        self._held.pop(reservation.slice_id, None)

    def _do_release(self, slice_id: str) -> None:
        del self._held[slice_id]

    def utilization(self) -> dict:
        return {"domain": self.domain, "held_mbps": sum(self._held.values())}


def _thirdparty_case() -> DriverCase:
    def new_spec(**overrides) -> DomainSpec:
        return DomainSpec(**_common(f"slice-conf-{next(_ids):04d}", **overrides))

    return DriverCase(
        "thirdparty",
        ThirdPartyDriver(),
        new_spec,
        lambda: new_spec(throughput_mbps=10_000.0),  # over the whole pool
    )


CASES = {
    "ran": _ran_case,
    "transport": _transport_case,
    "cloud": _cloud_case,
    "epc": _epc_case,
    "mock": _mock_case,
    "thirdparty": _thirdparty_case,
}


@pytest.fixture(params=sorted(CASES))
def case(request) -> DriverCase:
    return CASES[request.param]()


class TestCapabilities:
    def test_domain_name_matches(self, case):
        caps = case.driver.capabilities()
        assert caps.domain == case.driver.domain == case.name
        assert isinstance(caps.resource_units, tuple)

    def test_utilization_names_domain(self, case):
        util = case.driver.utilization()
        assert util["domain"] == case.name


class TestLifecycle:
    def test_feasible_then_prepare(self, case):
        """A feasible spec (the case's factory builds one) prepares."""
        spec = case.new_spec()
        reservation = case.driver.prepare(spec)
        assert reservation.state is ReservationState.PREPARED
        assert reservation.domain == case.name
        assert reservation.slice_id == spec.slice_id
        assert case.driver.reservation_of(spec.slice_id) is reservation

    def test_duplicate_prepare_rejected(self, case):
        spec = case.new_spec()
        case.driver.prepare(spec)
        with pytest.raises(DriverError):
            case.driver.prepare(spec)

    def test_commit_then_release(self, case):
        spec = case.new_spec()
        reservation = case.driver.prepare(spec)
        case.driver.commit(reservation)
        assert reservation.state is ReservationState.COMMITTED
        assert case.driver.health(spec.slice_id)["healthy"]
        case.driver.release(spec.slice_id)
        assert reservation.state is ReservationState.RELEASED
        assert case.driver.reservation_of(spec.slice_id) is None
        with pytest.raises(DriverError):
            case.driver.release(spec.slice_id)

    def test_rollback_leaves_no_residue(self, case):
        spec = case.new_spec()
        reservation = case.driver.prepare(spec)
        case.driver.rollback(reservation)
        assert reservation.state is ReservationState.ROLLED_BACK
        assert case.driver.reservation_of(spec.slice_id) is None
        # Zero residue: the same slice can be prepared again.
        again = case.driver.prepare(spec)
        assert again.state is ReservationState.PREPARED
        case.driver.rollback(again)

    def test_state_machine_rejects_out_of_order_transitions(self, case):
        spec = case.new_spec()
        reservation = case.driver.prepare(spec)
        case.driver.commit(reservation)
        with pytest.raises(DriverError):
            case.driver.commit(reservation)  # double commit
        with pytest.raises(DriverError):
            case.driver.rollback(reservation)  # rollback after commit
        case.driver.release(spec.slice_id)

    def test_release_requires_commit(self, case):
        spec = case.new_spec()
        reservation = case.driver.prepare(spec)
        with pytest.raises(DriverError):
            case.driver.release(spec.slice_id)
        case.driver.rollback(reservation)

    def test_health_unknown_slice_raises(self, case):
        with pytest.raises(DriverError):
            case.driver.health("slice-never-installed")


class TestResize:
    def test_resize_respects_capability(self, case):
        spec = case.new_spec()
        reservation = case.driver.prepare(spec)
        case.driver.commit(reservation)
        shrunk = DomainSpec(
            attributes=dict(spec.attributes),
            **_common(spec.slice_id, effective_fraction=0.5),
        )
        if case.driver.capabilities().supports_resize:
            resized = case.driver.resize(spec.slice_id, shrunk)
            assert resized.state is ReservationState.COMMITTED
            assert resized.spec.effective_fraction == 0.5
        else:
            with pytest.raises(DriverError):
                case.driver.resize(spec.slice_id, shrunk)
        case.driver.release(spec.slice_id)

    def test_resize_unknown_slice_raises(self, case):
        spec = case.new_spec()
        if not case.driver.capabilities().supports_resize:
            pytest.skip("driver does not support resize")
        with pytest.raises(DriverError):
            case.driver.resize("slice-never-installed", spec)


class TestRepair:
    def test_repair_respects_capability(self, case):
        spec = case.new_spec()
        reservation = case.driver.prepare(spec)
        case.driver.commit(reservation)
        if case.driver.capabilities().supports_repair:
            repaired = case.driver.repair(spec.slice_id)
            assert repaired.slice_id == spec.slice_id
        else:
            with pytest.raises(DriverError):
                case.driver.repair(spec.slice_id)
        case.driver.release(spec.slice_id)


# ----------------------------------------------------------------------
# Async lifecycle conformance
# ----------------------------------------------------------------------


class TestAsyncLifecycle:
    """The futures-based lifecycle is part of the driver contract: a
    natively asynchronous backend (the mock), the in-process adapters,
    which resolve inline on the caller's thread, and a driver inheriting
    the default hand-off to a worker thread must expose the same surface — the future resolves to the blocking method's
    result, and backend errors resolve the future instead of raising at
    the call site."""

    def test_async_install_release_roundtrip(self, case):
        spec = case.new_spec()
        future = case.driver.prepare_async(spec)
        reservation = future.result(timeout=10)
        assert reservation.state is ReservationState.PREPARED
        assert case.driver.reservation_of(spec.slice_id) is reservation
        assert case.driver.commit_async(reservation).result(timeout=10) is None
        assert reservation.state is ReservationState.COMMITTED
        assert case.driver.health(spec.slice_id)["healthy"]
        assert case.driver.release_async(spec.slice_id).result(timeout=10) is None
        assert reservation.state is ReservationState.RELEASED
        assert case.driver.reservation_of(spec.slice_id) is None

    def test_async_rollback_leaves_no_residue(self, case):
        spec = case.new_spec()
        reservation = case.driver.prepare_async(spec).result(timeout=10)
        assert case.driver.rollback_async(reservation).result(timeout=10) is None
        assert reservation.state is ReservationState.ROLLED_BACK
        assert case.driver.reservation_of(spec.slice_id) is None

    def test_async_refusal_resolves_the_future(self, case):
        if case.bad_spec is None:
            pytest.skip("backend has no refusal path to inject")
        future = case.driver.prepare_async(case.bad_spec())
        with pytest.raises(DriverError):
            future.result(timeout=10)
        assert future.done()

    def test_async_release_of_unknown_slice_resolves_the_future(self, case):
        future = case.driver.release_async("slice-never-installed")
        with pytest.raises(DriverError):
            future.result(timeout=10)


def test_mock_cancelled_pending_future_never_touches_backend():
    """True-async backends honour cancellation: a future cancelled
    before its completion fires on the clock performs no side effects
    at all (this is what makes a timed-out pending operation free to
    abandon)."""
    driver = MockDriver(domain="m", prepare_latency_s=0.2)
    future = driver.prepare_async(DomainSpec(slice_id="s0", throughput_mbps=5.0))
    assert future.cancel()
    driver.clock.run_until(0.3)  # past the would-be completion
    assert driver.prepares == 0
    assert driver.reservations() == []
    assert driver.held_mbps == 0.0


def test_mock_release_stall_racing_a_launch_strands_no_future():
    """Taking a stall token and parking the completion are one step
    under the pool lock, so a ``release_stall()`` on another thread
    either finds the completion parked and runs it, or ends the stall
    before the launch: no future is left unresolved either way."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(500):
            driver = MockDriver(domain="m", capacity_mbps=1e6)
            driver.stall()
            both = threading.Barrier(2)
            releaser = threading.Thread(target=lambda: (both.wait(), driver.release_stall()))
            releaser.start()
            both.wait()
            future = driver.prepare_async(DomainSpec(slice_id=f"s{i}", throughput_mbps=1.0))
            releaser.join(timeout=10)
            assert not releaser.is_alive()
            assert future.done() and future.result().state is ReservationState.PREPARED
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Concurrency conformance
# ----------------------------------------------------------------------

N_WORKERS = 4
CYCLES = 3


def _assert_matches(before, after, path="utilization"):
    """Recursive structural equality with float tolerance — the residue
    check: a backend's telemetry must return exactly to its pre-churn
    snapshot (no leaked PRBs, paths, flavors, instances, mbps)."""
    if isinstance(before, dict):
        assert isinstance(after, dict) and set(before) == set(after), path
        for key in before:
            _assert_matches(before[key], after[key], f"{path}.{key}")
    elif isinstance(before, (list, tuple)):
        assert len(before) == len(after), path
        for i, (b, a) in enumerate(zip(before, after)):
            _assert_matches(b, a, f"{path}[{i}]")
    elif isinstance(before, float) or isinstance(after, float):
        assert after == pytest.approx(before, abs=1e-6), path
    else:
        assert before == after, path


def _run_interleaved(driver: DomainDriver, per_worker: List[List]) -> List[Exception]:
    """Drive one lifecycle plan per worker thread, all released together
    from a barrier so the interleaving is real.  Each plan entry is
    ``(spec, action)`` with action in {"install", "rollback", "refuse"}:
    install = prepare→commit→release, rollback = prepare→rollback,
    refuse = a spec the backend must reject at prepare."""
    barrier = threading.Barrier(len(per_worker))
    unexpected: List[Exception] = []

    def worker(plan) -> None:
        try:
            barrier.wait(timeout=10)
            for spec, action in plan:
                if action == "refuse":
                    with pytest.raises(DriverError):
                        driver.prepare(spec)
                    continue
                reservation = driver.prepare(spec)
                if action == "rollback":
                    driver.rollback(reservation)
                    continue
                try:
                    driver.commit(reservation)
                except DriverError:
                    # Injected commit failure: the unwind discipline says
                    # roll the still-PREPARED reservation back.
                    driver.rollback(reservation)
                    continue
                driver.release(spec.slice_id)
        except Exception as exc:  # pragma: no cover - the assertion payload
            unexpected.append(exc)

    threads = [
        threading.Thread(target=worker, args=(plan,), name=f"conf-worker-{i}")
        for i, plan in enumerate(per_worker)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive(), "worker deadlocked"
    return unexpected


class TestConcurrency:
    """N interleaved install/release transactions + injected failures:
    the zero-residue invariant must hold for every backend."""

    def test_interleaved_install_release_leaves_zero_residue(self, case):
        specs = [case.new_spec() for _ in range(N_WORKERS * CYCLES)]
        before = case.driver.utilization()
        plans = []
        for w in range(N_WORKERS):
            plan = []
            for i, spec in enumerate(specs[w::N_WORKERS]):
                plan.append((spec, "rollback" if i % 3 == 1 else "install"))
            plans.append(plan)
        unexpected = _run_interleaved(case.driver, plans)
        assert not unexpected, unexpected
        assert case.driver.reservations() == []
        _assert_matches(before, case.driver.utilization())

    def test_injected_prepare_failures_leave_zero_residue(self, case):
        if case.bad_spec is None:
            pytest.skip("backend has no refusal path to inject")
        good = [case.new_spec() for _ in range(N_WORKERS * 2)]
        bad = [case.bad_spec() for _ in range(N_WORKERS)]
        before = case.driver.utilization()
        plans = []
        for w in range(N_WORKERS):
            plans.append(
                [
                    (good[2 * w], "install"),
                    (bad[w], "refuse"),
                    (good[2 * w + 1], "install"),
                ]
            )
        unexpected = _run_interleaved(case.driver, plans)
        assert not unexpected, unexpected
        assert case.driver.reservations() == []
        _assert_matches(before, case.driver.utilization())

    def test_injected_commit_failures_leave_zero_residue(self, case):
        """Commit-time failure injection is a MockDriver knob; adapters
        never fail commit (prepare did the work), so for them this runs
        as a plain interleaved install storm — the invariant must hold
        either way."""
        specs = [case.new_spec() for _ in range(N_WORKERS * 2)]
        if isinstance(case.driver, MockDriver):
            case.driver.fail_next_commit = 3
        before_reservations = len(case.driver.reservations())
        plans = [
            [(spec, "install") for spec in specs[w::N_WORKERS]]
            for w in range(N_WORKERS)
        ]
        unexpected = _run_interleaved(case.driver, plans)
        assert not unexpected, unexpected
        assert len(case.driver.reservations()) == before_reservations
        if isinstance(case.driver, MockDriver):
            assert case.driver.held_mbps == pytest.approx(0.0)

    def test_concurrent_duplicate_prepare_single_winner(self, case):
        """Two threads racing to prepare the *same* slice: exactly one
        reservation may exist afterwards (no double-hold)."""
        spec = case.new_spec()
        barrier = threading.Barrier(2)
        outcomes: List[object] = []

        def racer() -> None:
            try:
                barrier.wait(timeout=10)
                outcomes.append(case.driver.prepare(spec))
            except DriverError as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=racer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        wins = [o for o in outcomes if isinstance(o, Reservation)]
        assert len(wins) == 1, outcomes
        assert case.driver.reservation_of(spec.slice_id) is wins[0]
        case.driver.rollback(wins[0])
        assert case.driver.reservations() == []
