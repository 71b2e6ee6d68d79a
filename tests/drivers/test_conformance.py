"""Driver conformance suite.

The *same* contract tests run against every registered backend — the
four adapters over the simulator controllers, the in-memory mock and a
minimal third-party driver that inherits every default, behind the
``Walled`` wrapper the registry would put it in — so any future
driver (a real SDN controller, an alternate simulator)
has an executable specification: build a ``DriverCase`` for it, add it
to ``CASES``, and the full lifecycle/state-machine surface is covered.

The concurrency half of the suite (``TestConcurrency``) interleaves N
install/release transactions step by step in a seeded order on one
thread — a shard's control plane is entered by one thread at a time —
with prepare failures injected via each backend's own refusal path, and
asserts the zero-residue rollback invariant: after quiescence no
reservations, no PRBs, no paths, no flavors are leaked anywhere.
"""

from __future__ import annotations

import itertools
import logging
import random
import sys
import threading
from concurrent.futures import Future, InvalidStateError
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
    ResolvedFuture,
)
from repro.drivers.mock import MockDriver
from repro.drivers.registry import DriverRegistry
from repro.drivers.walled import Walled
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
    pool = PlmnPool(size=32)
    driver = TransportDriver(testbed.transport)

    def new_spec() -> DomainSpec:
        # Every live slice has a PLMN of its own (the orchestrator's
        # pool); its flows match on it.
        slice_id = f"slice-conf-{next(_ids):04d}"
        return DomainSpec(
            attributes={
                "src": "enb1-agg",
                "dst": "edge-dc-gw",
                "max_delay_ms": 10.0,
                "plmn_id": pool.allocate(slice_id).plmn_id,
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
    hooks over a scalar pool and no async surface of its own, so it runs
    behind ``Walled``'s hand-off of every call to a worker thread."""

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
        Walled(ThirdPartyDriver()),
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
    which resolve inline on the caller's thread, and a driver behind
    ``Walled``'s hand-off to a worker thread must expose the same
    surface — the future resolves to the blocking method's
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


# ----------------------------------------------------------------------
# Resolved futures: the in-process adapters' async answers
# ----------------------------------------------------------------------

IN_PROCESS = ("cloud", "epc", "ran", "transport")


@pytest.fixture(params=IN_PROCESS)
def in_process(request) -> DriverCase:
    return CASES[request.param]()


def _arguments(case: DriverCase, call: str) -> tuple:
    """(an argument ``call`` succeeds on, one it refuses).  A refusal
    changes nothing, so its blocking twin sees the same state."""
    driver = case.driver
    if call == "prepare":
        return case.new_spec(), case.bad_spec()
    held = driver.prepare(case.new_spec())
    committed = driver.prepare(case.new_spec())
    driver.commit(committed)
    if call == "release":
        return committed.slice_id, "slice-never-installed"
    return held, committed  # a PREPARED hold; a COMMITTED one is refused


def _call_async(case: DriverCase, call: str, argument) -> Future:
    return getattr(case.driver, f"{call}_async")(argument)


@pytest.mark.parametrize("call", ["prepare", "commit", "rollback", "release"])
class TestResolvedFutures:
    """An in-process adapter runs the call before ``*_async`` returns,
    so its future is born finished and carries no lock — yet answers
    every question as a finished ``concurrent.futures.Future`` does."""

    def test_done_at_return_and_a_future(self, in_process, call):
        for argument in _arguments(in_process, call):
            future = _call_async(in_process, call, argument)
            assert isinstance(future, Future)
            assert future.done() and not future.running()

    def test_callbacks_run_once_at_once(self, in_process, call):
        for argument in _arguments(in_process, call):
            future = _call_async(in_process, call, argument)
            seen = []
            future.add_done_callback(lambda done: seen.append(("first", done)))
            assert seen == [("first", future)]
            future.add_done_callback(lambda done: seen.append(("second", done)))
            assert seen == [("first", future), ("second", future)]

    def test_outcome_mirrors_the_blocking_call(self, in_process, call):
        ok, refused = _arguments(in_process, call)
        future = _call_async(in_process, call, ok)
        assert future.exception(timeout=0.0) is None
        result = future.result(timeout=0.0)
        if call == "prepare":
            assert result is in_process.driver.reservation_of(ok.slice_id)
            assert result.state is ReservationState.PREPARED
        else:
            assert result is None
        future = _call_async(in_process, call, refused)
        with pytest.raises(DriverError) as blocking:
            getattr(in_process.driver, call)(refused)
        error = future.exception(timeout=0.0)
        assert type(error) is type(blocking.value) and str(error) == str(blocking.value)
        with pytest.raises(DriverError) as raised:
            future.result(timeout=0.0)
        assert raised.value is error

    def test_cannot_be_cancelled_or_resolved_again(self, in_process, call):
        for argument in _arguments(in_process, call):
            future = _call_async(in_process, call, argument)
            assert future.cancel() is False and future.cancelled() is False
            assert "state=finished" in repr(future)
            with pytest.raises(InvalidStateError):
                future.set_result(None)
            with pytest.raises(InvalidStateError):
                future.set_exception(DriverError(in_process.name, "late"))
            assert future.done() and not future.cancelled()

    def test_builds_no_condition(self, in_process, call, monkeypatch):
        arguments = _arguments(in_process, call)
        built = []
        stock = threading.Condition
        monkeypatch.setattr(
            threading, "Condition", lambda *a, **k: built.append(1) or stock(*a, **k)
        )
        for argument in arguments:
            future = _call_async(in_process, call, argument)
            future.add_done_callback(lambda done: done.exception())
            future.exception()
            future.cancel()
        assert built == []
        Future()  # the spy sees a stock future's lock
        assert built == [1]


def test_a_raising_callback_is_logged_and_swallowed_as_a_finished_future_does(caplog):
    """Pinned: a done-callback that raises does not reach the caller of
    ``add_done_callback``; it is logged on the ``concurrent.futures``
    logger, and later callbacks still run — the same for a stock
    ``Future`` that has finished and for a resolved one."""

    def boom(_):
        raise ValueError("callback bug")

    stock = Future()
    stock.set_result(1)
    for future in (stock, ResolvedFuture(1), ResolvedFuture(exception=KeyError("k"))):
        caplog.clear()
        seen = []
        with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
            future.add_done_callback(boom)
            future.add_done_callback(seen.append)
        assert seen == [future]
        (record,) = caplog.records
        assert record.name == "concurrent.futures"
        assert "exception calling callback for" in record.getMessage()
        assert isinstance(record.exc_info[1], ValueError)


def test_resolved_future_answers_as_a_finished_stock_future():
    """Side by side with a stock ``Future`` resolved the same way, every
    answer matches (``repr`` up to the class name and address)."""
    error = DriverError("ran", "refused")
    for outcome in ({"result": "r"}, {"exception": error}):
        stock = Future()
        if "result" in outcome:
            stock.set_result(outcome["result"])
        else:
            stock.set_exception(outcome["exception"])
        resolved = ResolvedFuture(**outcome)
        for future in (stock, resolved):
            assert (future.done(), future.running(), future.cancelled()) == (True, False, False)
            assert future.cancel() is False
            assert future.exception() is stock.exception()
            with pytest.raises(RuntimeError):
                future.set_running_or_notify_cancel()
        assert repr(resolved).split(" state=")[1] == repr(stock).split(" state=")[1]
        if "result" in outcome:
            assert resolved.result() == stock.result() == "r"


def test_window_journal_is_the_same_with_stock_futures(tmp_path, monkeypatch):
    """One broker window (three winners, a knapsack loser, a winner
    whose every attempt unwinds) written twice: with the adapters'
    resolved futures, then with each swapped back to a stock, locked
    ``Future`` resolved the same way.  The journal bytes, the decisions
    and the planner's trails are identical."""
    from repro.core.orchestrator import Orchestrator
    from repro.drivers.adapters import _InProcessDriver
    from repro.drivers.planner import BatchInstallPlanner
    from tests.store import window_scenario

    def stock_shim(self, label, fn, *args):
        stocks.append(1)
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def run(directory):
        decisions, trails = [], []
        install_admitted = Orchestrator.install_admitted_batch
        install_batch = BatchInstallPlanner.install_batch

        def deciding(orchestrator, admissions, **kwargs):
            told = install_admitted(orchestrator, admissions, **kwargs)
            decisions.extend((d.request_id, d.admitted, d.reason, d.slice_id) for d in told)
            return told

        def installing(planner, batch):
            outcomes = install_batch(planner, batch)
            trails.extend((o.job.slice_id, o.ok, o.trail) for o in outcomes)
            return outcomes

        with monkeypatch.context() as patch:
            patch.setattr(Orchestrator, "install_admitted_batch", deciding)
            patch.setattr(BatchInstallPlanner, "install_batch", installing)
            window_scenario.run(str(directory), through="window")
        journal = directory / f"shard-{window_scenario.SHARD:03d}" / "journal.jsonl"
        return journal.read_bytes(), decisions, trails

    stocks = []
    resolved = run(tmp_path / "resolved")
    assert stocks == []
    monkeypatch.setattr(_InProcessDriver, "_shim_async", stock_shim)
    locked = run(tmp_path / "locked")
    assert stocks  # the swap was exercised
    assert resolved == locked
    # The window's four installs ran, one of them unwinding every attempt.
    assert [ok for _, ok, _ in resolved[2]] == [True, True, True, False]


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
    """Another thread posts ``release_stall()`` through the registry's
    door while the shard's thread launches a stalled operation: the post
    runs when the shard next drains its door, on the shard's thread, so
    it finds the completion parked and runs it — no future is left
    unresolved, whenever the post landed."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(500):
            driver = MockDriver(domain="m", capacity_mbps=1e6)
            registry = DriverRegistry([driver])
            driver.stall()
            both = threading.Barrier(2)
            releaser = threading.Thread(
                target=lambda: (both.wait(), registry.post(driver.release_stall))
            )
            releaser.start()
            both.wait()
            future = driver.prepare_async(DomainSpec(slice_id=f"s{i}", throughput_mbps=1.0))
            releaser.join(timeout=10)
            assert not releaser.is_alive()
            registry.run_posted()
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


def _run_interleaved(
    driver: DomainDriver, per_worker: List[List], seed: int = 0
) -> List[Exception]:
    """Drive one lifecycle plan per worker, interleaved call by call in
    an order drawn from ``seed``, on this thread (a shard's control
    plane is entered by one thread at a time).  Each plan entry is
    ``(spec, action)`` with action in {"install", "rollback", "refuse"}:
    install = prepare→commit→release, rollback = prepare→rollback,
    refuse = a spec the backend must reject at prepare."""
    unexpected: List[Exception] = []

    def worker(plan):
        """One driver call per step."""
        try:
            for spec, action in plan:
                if action == "refuse":
                    with pytest.raises(DriverError):
                        driver.prepare(spec)
                    yield
                    continue
                reservation = driver.prepare(spec)
                yield
                if action == "rollback":
                    driver.rollback(reservation)
                    yield
                    continue
                try:
                    driver.commit(reservation)
                except DriverError:
                    # Injected commit failure: the unwind discipline says
                    # roll the still-PREPARED reservation back.
                    yield
                    driver.rollback(reservation)
                    yield
                    continue
                yield
                driver.release(spec.slice_id)
                yield
        except Exception as exc:  # pragma: no cover - the assertion payload
            unexpected.append(exc)

    rng = random.Random(seed)
    live = [worker(plan) for plan in per_worker]
    for _ in range(4 * sum(len(plan) + 1 for plan in per_worker)):
        if not live:
            break
        step = rng.choice(live)
        if next(step, StopIteration) is StopIteration:
            live.remove(step)
    assert not live, "worker never finished"
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
        assert case.driver.list_reservations() == []
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
        assert case.driver.list_reservations() == []
        _assert_matches(before, case.driver.utilization())

    def test_injected_commit_failures_leave_zero_residue(self, case):
        """Commit-time failure injection is a MockDriver knob; adapters
        never fail commit (prepare did the work), so for them this runs
        as a plain interleaved install storm — the invariant must hold
        either way."""
        specs = [case.new_spec() for _ in range(N_WORKERS * 2)]
        if isinstance(case.driver, MockDriver):
            case.driver.fail_next_commit = 3
        before_reservations = len(case.driver.list_reservations())
        plans = [
            [(spec, "install") for spec in specs[w::N_WORKERS]]
            for w in range(N_WORKERS)
        ]
        unexpected = _run_interleaved(case.driver, plans)
        assert not unexpected, unexpected
        assert len(case.driver.list_reservations()) == before_reservations
        if isinstance(case.driver, MockDriver):
            assert case.driver.held_mbps == pytest.approx(0.0)

    def test_concurrent_duplicate_prepare_single_winner(self, case):
        """Two interleaved prepares of the *same* slice: exactly one
        reservation may exist afterwards (no double-hold)."""
        spec = case.new_spec()
        outcomes: List[object] = []
        for _ in range(2):
            try:
                outcomes.append(case.driver.prepare(spec))
            except DriverError as exc:
                outcomes.append(exc)
        wins = [o for o in outcomes if isinstance(o, Reservation)]
        assert len(wins) == 1, outcomes
        assert case.driver.reservation_of(spec.slice_id) is wins[0]
        case.driver.rollback(wins[0])
        assert case.driver.list_reservations() == []
