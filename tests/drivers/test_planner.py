"""Tests for the concurrent batch install planner.

The planner is the fleet-scale install engine: batches of install jobs
run concurrently over the driver registry, prepares fan out in
dependency waves under per-driver concurrency caps, and the two-phase
reverse-order unwind discipline must hold no matter how jobs
interleave.  The :class:`~repro.drivers.mock.MockDriver` provides the
thread-safe backend plus prepare/commit/release failure injection.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List

import pytest

from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.drivers.base import DomainDriver, DomainSpec, DriverError, ReservationState
from repro.drivers.mock import MockDriver
from repro.drivers.planner import BatchInstallPlanner, InstallJob
from repro.drivers.registry import DriverRegistry
from repro.drivers.transaction import OperationTimeout, TransactionError
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.obs.registry import ControlPlaneObservability
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request


DOMAINS = ("alpha", "beta", "gamma")

#: Just above what pytest itself needs around a test body.  The planner
#: runs continuations off a queue, never off each other, so nothing in
#: this module may need a stack that grows with the batch.
RECURSION_LIMIT = 300


@pytest.fixture(autouse=True, scope="module")
def shallow_stack():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(RECURSION_LIMIT)
    yield
    sys.setrecursionlimit(limit)


def make_registry(capacity_mbps: float = 1_000.0, **mock_kwargs) -> DriverRegistry:
    return DriverRegistry(
        [
            MockDriver(domain=d, capacity_mbps=capacity_mbps, **mock_kwargs)
            for d in DOMAINS
        ]
    )


def spec_map(slice_id: str, mbps: float = 10.0) -> Dict[str, DomainSpec]:
    return {
        d: DomainSpec(slice_id=slice_id, throughput_mbps=mbps) for d in DOMAINS
    }


def job_for(slice_id: str, mbps: float = 10.0, attempts: int = 1) -> InstallJob:
    return InstallJob(
        slice_id=slice_id,
        attempts=[spec_map(slice_id, mbps) for _ in range(attempts)],
    )


def committed_mbps(driver: MockDriver) -> float:
    return sum(
        r.spec.throughput_mbps * r.spec.effective_fraction
        for r in driver.reservations()
        if r.state is ReservationState.COMMITTED
    )


def assert_zero_residue(registry: DriverRegistry) -> None:
    """The global conservation invariant: what a backend physically
    holds equals exactly the sum of its COMMITTED reservations, and no
    reservation is stranded mid-lifecycle."""
    for driver in registry.drivers():
        for reservation in driver.reservations():
            assert reservation.state is ReservationState.COMMITTED
        assert driver.held_mbps == pytest.approx(committed_mbps(driver))


class TestPlanning:
    def test_plan_groups_jobs_into_bounded_batches(self):
        planner = BatchInstallPlanner(make_registry(), batch_size=4)
        jobs = [job_for(f"s{i}") for i in range(10)]
        batches = planner.plan(jobs)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [j.slice_id for b in batches for j in b] == [j.slice_id for j in jobs]

    def test_prepare_waves_respect_declared_dependencies(self):
        registry = DriverRegistry(
            [
                MockDriver(domain="ran"),
                MockDriver(domain="cloud"),
                MockDriver(domain="epc", prepare_after=("cloud",)),
            ]
        )
        planner = BatchInstallPlanner(registry)
        waves = planner.prepare_waves(registry.domains())
        assert waves == [["ran", "cloud"], ["epc"]]

    def test_prepare_waves_ignore_absent_dependencies(self):
        registry = DriverRegistry(
            [MockDriver(domain="epc", prepare_after=("cloud",))]
        )
        planner = BatchInstallPlanner(registry)
        assert planner.prepare_waves(["epc"]) == [["epc"]]

    def test_dependency_cycle_degrades_to_serial_order(self):
        registry = DriverRegistry(
            [
                MockDriver(domain="a", prepare_after=("b",)),
                MockDriver(domain="b", prepare_after=("a",)),
            ]
        )
        planner = BatchInstallPlanner(registry)
        waves = planner.prepare_waves(["a", "b"])
        assert waves == [["a"], ["b"]]


class TestBatchInstall:
    def test_batch_commits_every_domain(self):
        registry = make_registry()
        planner = BatchInstallPlanner(registry, max_workers=4)
        outcomes = planner.install([job_for(f"s{i}") for i in range(6)])
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            assert set(outcome.reservations) == set(DOMAINS)
            for reservation in outcome.reservations.values():
                assert reservation.state is ReservationState.COMMITTED
        for driver in registry.drivers():
            assert driver.held_mbps == pytest.approx(60.0)
        assert_zero_residue(registry)
        assert planner.jobs_installed == 6
        assert planner.jobs_failed == 0

    def test_outcomes_keep_submission_order(self):
        planner = BatchInstallPlanner(make_registry(), max_workers=4, batch_size=2)
        jobs = [job_for(f"s{i}") for i in range(5)]
        outcomes = planner.install(jobs)
        assert [o.job.slice_id for o in outcomes] == [j.slice_id for j in jobs]

    def test_spec_domain_mismatch_fails_before_preparing(self):
        registry = make_registry()
        planner = BatchInstallPlanner(registry)
        bad = InstallJob(slice_id="s0", attempts=[{"alpha": DomainSpec(slice_id="s0")}])
        (outcome,) = planner.install([bad])
        assert not outcome.ok
        assert "mismatch" in str(outcome.error)
        for driver in registry.drivers():
            assert driver.prepares == 0

    def test_job_with_no_attempts_fails_cleanly(self):
        planner = BatchInstallPlanner(make_registry())
        (outcome,) = planner.install([InstallJob(slice_id="s0", attempts=[])])
        assert not outcome.ok
        assert "no install attempts" in str(outcome.error)


class TestUnwindDiscipline:
    def test_prepare_failure_unwinds_only_that_job(self):
        registry = make_registry()
        registry.get("gamma").fail_next_prepare = 1
        planner = BatchInstallPlanner(registry, max_workers=1)  # deterministic victim
        outcomes = planner.install([job_for("s0"), job_for("s1")])
        assert [o.ok for o in outcomes] == [False, True]
        assert_zero_residue(registry)
        # The survivor holds in every domain; the victim holds nowhere.
        for driver in registry.drivers():
            assert {r.slice_id for r in driver.reservations()} == {"s1"}

    def test_commit_failure_releases_committed_and_rolls_back_prepared(self):
        registry = make_registry()
        # beta commits after alpha in registry order: alpha is COMMITTED
        # when beta's commit fails, gamma is still PREPARED.
        registry.get("beta").fail_next_commit = 1
        planner = BatchInstallPlanner(registry, max_workers=1)
        (outcome,) = planner.install([job_for("s0")])
        assert not outcome.ok
        assert_zero_residue(registry)
        alpha, beta, gamma = (registry.get(d) for d in DOMAINS)
        assert alpha.releases == 1  # committed → released
        assert gamma.rollbacks == 1  # still prepared → rolled back
        # Reverse order: gamma unwinds before alpha (recorded rollbacks).
        unwound = [domain for domain, _, _ in outcome.rollbacks]
        assert unwound.index("gamma") < unwound.index("alpha")

    def test_validate_failure_unwinds_everything(self):
        registry = make_registry()
        planner = BatchInstallPlanner(registry)

        def veto(reservations):
            raise DriverError("validator", "cross-domain check failed")

        job = InstallJob(slice_id="s0", attempts=[spec_map("s0")], validate=veto)
        (outcome,) = planner.install([job])
        assert not outcome.ok
        assert "cross-domain check failed" in str(outcome.error)
        assert_zero_residue(registry)
        for driver in registry.drivers():
            assert driver.reservations() == []

    def test_second_attempt_succeeds_and_hides_first_attempt_rollbacks(self):
        fired: List[tuple] = []
        registry = make_registry()
        registry.get("beta").fail_next_prepare = 1
        planner = BatchInstallPlanner(
            registry, max_workers=1, on_rollback=lambda *a: fired.append(a)
        )
        (outcome,) = planner.install([job_for("s0", attempts=2)])
        assert outcome.ok
        # First attempt's unwind was buffered but never surfaced.
        assert fired == []
        assert outcome.rollbacks  # the buffer does record the retry
        assert_zero_residue(registry)

    def test_rollback_hook_fires_for_failed_jobs_only(self):
        fired: List[tuple] = []
        registry = make_registry()
        registry.get("gamma").fail_next_prepare = 1
        planner = BatchInstallPlanner(
            registry, max_workers=1, on_rollback=lambda *a: fired.append(a)
        )
        outcomes = planner.install([job_for("s0"), job_for("s1")])
        assert [o.ok for o in outcomes] == [False, True]
        assert fired  # the failed job surfaced its unwinds
        assert {r.slice_id for _, r, _ in fired} == {"s0"}


class TestConcurrencyCaps:
    def test_per_driver_semaphore_bounds_inflight_prepares(self):
        class Probe(MockDriver):
            """Counts prepares launched and not yet landed (all on the
            draining thread: the completions are clock events)."""

            def __init__(self):
                super().__init__(
                    domain="probe", max_concurrent_installs=2, prepare_latency_s=0.002
                )
                self.inflight = 0
                self.max_inflight = 0

            def prepare_async(self, spec):
                self.inflight += 1
                self.max_inflight = max(self.max_inflight, self.inflight)
                future = super().prepare_async(spec)
                future.add_done_callback(self._landed)
                return future

            def _landed(self, future):
                self.inflight -= 1

        probe = Probe()
        registry = DriverRegistry([probe])
        planner = BatchInstallPlanner(registry, max_workers=8)
        outcomes = planner.install(
            [
                InstallJob(slice_id=f"s{i}", attempts=[{"probe": DomainSpec(slice_id=f"s{i}")}])
                for i in range(12)
            ]
        )
        assert all(o.ok for o in outcomes)
        assert probe.max_inflight == 2
        # Twelve prepares, two at a time: six latencies back to back.
        assert registry.clock.now == pytest.approx(6 * 0.002)

    def test_engine_installs_every_job_with_zero_residue(self):
        registry = make_registry()
        planner = BatchInstallPlanner(registry, max_workers=4)
        outcomes = planner.install([job_for(f"s{i}") for i in range(6)])
        assert all(o.ok for o in outcomes)
        assert_zero_residue(registry)
        assert planner.jobs_installed == 6

    def test_interleaved_batches_keep_invariant_under_failure_injection(self):
        """Two planners hammer the same registry from two threads with
        failures injected everywhere; after quiescence the conservation
        invariant holds and no reservation is stranded."""
        registry = make_registry(capacity_mbps=10_000.0)
        for driver in registry.drivers():
            driver.fail_next_prepare = 3
            driver.fail_next_commit = 2
        planners = [
            BatchInstallPlanner(registry, max_workers=4, batch_size=8)
            for _ in range(2)
        ]
        results: List[List] = [[], []]
        errors: List[Exception] = []

        def run(which: int) -> None:
            try:
                jobs = [job_for(f"p{which}-s{i}") for i in range(16)]
                results[which] = planners[which].install(jobs)
            except Exception as exc:  # pragma: no cover - must not happen
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(w,)) for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        outcomes = results[0] + results[1]
        assert len(outcomes) == 32
        assert_zero_residue(registry)
        # Failed jobs hold nothing anywhere; successful ones everywhere.
        for outcome in outcomes:
            held_in = {
                d.domain
                for d in registry.drivers()
                if any(r.slice_id == outcome.job.slice_id for r in d.reservations())
            }
            assert held_in == (set(DOMAINS) if outcome.ok else set())


class TestStallIsolation:
    """One hung southbound domain must not stall the batch: the job
    that hit it times out and unwinds cleanly, every other job commits
    in its own latency, and the straggling operation is compensated
    once the backend comes back.  Time is the registry's clock, so each
    test reads the instant the batch settled exactly."""

    TIMEOUT_S = 0.25

    def _registry(self) -> DriverRegistry:
        return DriverRegistry(
            [
                MockDriver(
                    domain=d,
                    capacity_mbps=10_000.0,
                    max_concurrent_installs=8,
                    prepare_latency_s=0.005,
                    commit_latency_s=0.001,
                )
                for d in DOMAINS
            ]
        )

    def test_stalled_job_times_out_while_healthy_jobs_commit(self):
        registry = self._registry()
        stalled_driver = registry.get("beta")
        stalled_driver.stall()  # next beta operation hangs
        planner = BatchInstallPlanner(
            registry, max_workers=16, operation_timeout_s=self.TIMEOUT_S
        )
        outcomes = planner.install([job_for(f"s{i}") for i in range(16)])
        failed = [o for o in outcomes if not o.ok]
        healthy = [o for o in outcomes if o.ok]
        # Exactly the job that hit the stall failed — with a timeout.
        assert len(failed) == 1 and len(healthy) == 15
        assert isinstance(failed[0].error, OperationTimeout)
        assert "timed out" in str(failed[0].error)
        assert planner.ops_timed_out == 1
        # The batch settled at the deadline, not at stall release
        # (which has not happened yet) — the 15 healthy jobs never
        # waited on the hung domain.
        assert registry.clock.now == self.TIMEOUT_S
        assert stalled_driver.stalled_ops == 1
        # The straggler completes on release and is compensated there
        # and then: the failed job holds nothing anywhere.
        stalled_driver.release_stall()
        failed_id = failed[0].job.slice_id
        assert all(
            r.slice_id != failed_id
            for driver in registry.drivers()
            for r in driver.reservations()
        ), "late completion of the stalled operation was not compensated"
        assert_zero_residue(registry)
        # Healthy jobs still hold everywhere.
        for driver in registry.drivers():
            assert {r.slice_id for r in driver.reservations()} == {
                o.job.slice_id for o in healthy
            }

    def test_batch_settles_at_deadline_before_stall_release(self):
        """A thread-per-job engine cannot settle a batch before a hung
        blocking call returns; the event-driven engine settles at the
        deadline, healthy jobs long since committed, and the release —
        an event on the same clock — comes later."""
        release_after_s = 0.5
        registry = self._registry()
        stalled_driver = registry.get("beta")
        stalled_driver.stall()
        registry.clock.schedule(release_after_s, stalled_driver.release_stall)
        planner = BatchInstallPlanner(
            registry, max_workers=8, operation_timeout_s=0.1
        )
        outcomes = planner.install([job_for(f"s{i}") for i in range(8)])
        assert registry.clock.now == 0.1 < release_after_s
        assert stalled_driver.prepares == 7  # the eighth is still parked
        assert sum(o.ok for o in outcomes) == 7
        assert sum(isinstance(o.error, OperationTimeout)
                   for o in outcomes if not o.ok) == 1
        registry.clock.run_until(release_after_s)
        assert planner.ops_compensated == 1
        assert_zero_residue(registry)

    def test_blocking_driver_on_the_default_worker_handoff_is_isolated(self):
        """A driver that only has blocking methods inherits
        ``DomainDriver``'s async surface: each call runs on its own
        worker, so a hung one parks that worker — not the thread
        draining the batch — under a wall-time deadline, and is
        compensated when it returns."""
        drainer = threading.get_ident()
        callers = set()

        class Blocking(MockDriver):
            """Calls that really block: the first prepare waits on
            ``gate``, on whichever worker the hand-off gave it."""

            _shim_async = DomainDriver._shim_async

            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.gate = threading.Event()
                self.hangs = 1

            def _do_prepare(self, spec):
                with self._pool_lock:
                    callers.add(threading.get_ident())
                    hang, self.hangs = self.hangs > 0, self.hangs - 1
                if hang:
                    self.gate.wait(timeout=30)
                return super()._do_prepare(spec)

        registry = DriverRegistry(
            [
                MockDriver(domain="alpha", capacity_mbps=1e4),
                Blocking(domain="beta", capacity_mbps=1e4, max_concurrent_installs=8),
                MockDriver(domain="gamma", capacity_mbps=1e4),
            ]
        )
        blocking = registry.get("beta")
        compensated = threading.Event()
        planner = BatchInstallPlanner(
            registry, max_workers=8, operation_timeout_s=self.TIMEOUT_S,
            on_record=lambda *record: compensated.set(),
        )
        try:
            outcomes = planner.install([job_for(f"s{i}") for i in range(8)])
            assert sum(o.ok for o in outcomes) == 7
            (failed,) = [o for o in outcomes if not o.ok]
            assert isinstance(failed.error, OperationTimeout)
            assert callers and drainer not in callers
            assert registry.clock.now == 0.0  # a wall-time deadline
        finally:
            blocking.gate.set()
        assert compensated.wait(timeout=30), "late completion on the worker was not compensated"
        assert planner.ops_compensated == 1
        for driver in registry.drivers():
            assert {r.slice_id for r in driver.reservations()} == {
                o.job.slice_id for o in outcomes if o.ok
            }
        assert_zero_residue(registry)

    def test_deadline_covers_token_queueing_on_serial_driver(self):
        """The deadline clock starts at submission, not at token grant:
        on a cap-1 (serial) driver, jobs queued behind a hung operation
        time out too instead of wedging the whole batch — the regression
        the real adapters (all serial) would otherwise hit."""
        registry = DriverRegistry(
            [MockDriver(domain="serial", capacity_mbps=1e9,
                        max_concurrent_installs=1)]
        )
        driver = registry.get("serial")
        driver.stall()
        planner = BatchInstallPlanner(
            registry, max_workers=8, operation_timeout_s=0.15
        )
        jobs = [
            InstallJob(
                slice_id=f"s{i}",
                attempts=[{"serial": DomainSpec(slice_id=f"s{i}",
                                                throughput_mbps=1.0)}],
            )
            for i in range(4)
        ]
        outcomes = planner.install(jobs)
        assert all(not o.ok for o in outcomes)
        assert all(isinstance(o.error, OperationTimeout) for o in outcomes)
        assert planner.ops_timed_out == 4
        assert registry.clock.now == 0.15, "queued jobs outlived their deadline"
        driver.release_stall()
        # Only the op that actually held the token launched; its late
        # completion is compensated, the queued ones never ran.
        assert all(not d.reservations() for d in registry.drivers())
        assert (driver.prepares, driver.rollbacks) == (1, 1)

    def test_timeout_fails_the_job_without_retrying_attempts(self):
        """A hung domain fails the *job*, not just the attempt: further
        candidate-DC attempts would hammer the hung backend and trip
        the per-slice in-flight guard while the straggler is still out,
        masking the timeout behind a confusing refusal."""
        registry = self._registry()
        stalled_driver = registry.get("beta")
        stalled_driver.stall()
        planner = BatchInstallPlanner(registry, operation_timeout_s=0.15)
        (outcome,) = planner.install([job_for("s0", attempts=3)])
        assert not outcome.ok
        assert isinstance(outcome.error, OperationTimeout)
        # Attempts 2 and 3 never ran: the straggler is still parked
        # (its counter bumps only once it completes) and no other beta
        # prepare was issued.
        assert stalled_driver.prepares == 0
        assert registry.get("alpha").prepares == 1
        stalled_driver.release_stall()
        assert all(not driver.reservations() for driver in registry.drivers())

    def test_hung_rollback_during_unwind_does_not_block_settlement(self):
        """The unwind chain is deadline-covered too: a backend that
        hangs *during rollback* costs the job its deadline, not the
        batch its liveness — and the late rollback, being itself the
        compensation, still lands once the backend returns."""
        registry = self._registry()
        registry.get("gamma").fail_next_prepare = 1  # forces an unwind
        hung = registry.get("beta")
        hung.stall(kinds=("rollback",))  # forward path runs; unwind hangs
        planner = BatchInstallPlanner(registry, operation_timeout_s=0.15)
        (outcome,) = planner.install([job_for("s0")])
        assert not outcome.ok
        assert "unwind also failed" in str(outcome.error)
        assert "timed out" in str(outcome.error)
        # The prepares took 5 ms; the hung rollback its deadline.
        assert registry.clock.now == pytest.approx(0.005 + 0.15)
        # alpha's compensation landed on time; beta's is parked.
        assert registry.get("alpha").rollbacks == 1
        hung.release_stall()
        # The parked rollback completes on release — it *is* the
        # compensation, so the residue clears without further action.
        assert all(not driver.reservations() for driver in registry.drivers())
        assert hung.held_mbps == 0.0

    def test_timed_out_pending_operation_is_cancelled_without_side_effects(self):
        """A deadline shorter than the emulated latency cancels the
        still-pending future: the backend is never touched, so there is
        nothing to compensate."""
        registry = DriverRegistry(
            [
                MockDriver(
                    domain="slow",
                    capacity_mbps=1_000.0,
                    prepare_latency_s=0.5,
                )
            ]
        )
        planner = BatchInstallPlanner(registry, operation_timeout_s=0.05)
        job = InstallJob(
            slice_id="s0", attempts=[{"slow": DomainSpec(slice_id="s0")}]
        )
        (outcome,) = planner.install([job])
        assert not outcome.ok
        assert isinstance(outcome.error, OperationTimeout)
        assert registry.clock.now == 0.05
        driver = registry.get("slow")
        registry.clock.run_until(0.6)  # past the would-be completion
        assert driver.prepares == 0
        assert driver.reservations() == []
        assert planner.ops_compensated == 0


class TestDurabilityHooks:
    """The planner's durability surface: the per-job audit trail
    (``InstallOutcome.trail``), the ``on_record`` hook left for
    background compensations, and the buffered northbound incidents
    (``drain_events``) the orchestrator surfaces on its event feed."""

    def test_trail_holds_every_prepare_and_commit(self):
        registry = make_registry()
        planner = BatchInstallPlanner(registry)
        outcomes = planner.install([job_for("s1"), job_for("s2")])
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            for domain in DOMAINS:
                reservation_id = outcome.reservations[domain].reservation_id
                assert ("prepared", domain, reservation_id) in outcome.trail
                assert ("committed", domain, reservation_id) in outcome.trail
            # Every landed transition exactly once, nothing else.
            assert len(outcome.trail) == 2 * len(DOMAINS)
            assert len(set(outcome.trail)) == len(outcome.trail)

    def test_trail_holds_the_unwind(self):
        registry = make_registry()
        registry.get("gamma").fail_next_prepare = 1
        planner = BatchInstallPlanner(registry)
        (outcome,) = planner.install([job_for("s-fail")])
        assert not outcome.ok
        unwound = [(k, d) for k, d, _ in outcome.trail if k == "rolled_back"]
        assert set(unwound) == {
            ("rolled_back", "alpha"),
            ("rolled_back", "beta"),
        }
        # Landing order: both prepares, then the reverse-order unwind.
        assert [(k, d) for k, d, _ in outcome.trail] == [
            ("prepared", "alpha"),
            ("prepared", "beta"),
            ("rolled_back", "beta"),
            ("rolled_back", "alpha"),
        ]

    def test_raising_recorder_never_fails_the_install(self):
        registry = make_registry()

        def broken(*args):
            raise RuntimeError("journal on fire")

        planner = BatchInstallPlanner(registry, on_record=broken)
        (outcome,) = planner.install([job_for("s-audit")])
        assert outcome.ok
        assert len(outcome.trail) == 2 * len(DOMAINS)

    def test_timeout_and_compensation_buffered_as_events(self):
        registry = make_registry(max_concurrent_installs=8)
        stalled = registry.get("beta")
        stalled.stall()
        records: List[tuple] = []
        planner = BatchInstallPlanner(
            registry,
            operation_timeout_s=0.15,
            on_record=lambda *record: records.append(record),
        )
        (outcome,) = planner.install([job_for("s-hang")])
        assert not outcome.ok
        # The job's trail ends where the job did: the straggler is not
        # in it, and nothing was handed to the hook on the window path.
        assert [(k, d) for k, d, _ in outcome.trail] == [
            ("prepared", "alpha"),
            ("prepared", "gamma"),
            ("rolled_back", "gamma"),
            ("rolled_back", "alpha"),
        ]
        assert records == []
        drained = planner.drain_events()
        kinds = [k for k, _ in drained]
        assert "driver.op_timeout" in kinds
        payload = dict(drained)[("driver.op_timeout")]
        assert payload["domain"] == "beta"
        assert payload["slice_id"] == "s-hang"
        # The straggler completes on release and is compensated there.
        stalled.release_stall()
        assert planner.ops_compensated == 1
        # ... and that compensation, landing after the job settled,
        # keeps its own audit record.
        assert len(records) == 1
        (kind, domain, slice_id, reservation_id) = records[0]
        assert (kind, domain, slice_id) == ("driver.compensated", "beta", "s-hang")
        assert reservation_id.startswith("beta-res-")
        late = planner.drain_events()
        assert ("driver.compensated", {
            "domain": "beta", "kind": "prepare", "slice_id": "s-hang",
        }) in late
        # Draining clears the buffer.
        assert planner.drain_events() == []


class TestObservability:
    """Span propagation through the async engine: the job's carried
    SpanContext must pin every southbound op span to the right parent
    no matter which completion closes it, and a timed-out op must close
    its span as an error rather than leak it."""

    def _obs(self):
        return ControlPlaneObservability()

    def _registry(self) -> DriverRegistry:
        return DriverRegistry(
            [
                MockDriver(
                    domain=d,
                    capacity_mbps=10_000.0,
                    max_concurrent_installs=8,
                    prepare_latency_s=0.003,
                    commit_latency_s=0.001,
                )
                for d in DOMAINS
            ]
        )

    def test_op_spans_parent_to_their_job_across_completion_threads(self):
        obs = self._obs()
        planner = BatchInstallPlanner(self._registry(), max_workers=8, obs=obs)
        root = obs.span("install.batch")
        job_spans = {}
        jobs = []
        for i in range(8):
            slice_id = f"s{i}"
            job_span = obs.span("install.job", parent=root.context)
            job_spans[slice_id] = job_span
            jobs.append(
                InstallJob(
                    slice_id=slice_id,
                    attempts=[spec_map(slice_id)],
                    span_context=job_span.context,
                )
            )
        outcomes = planner.install(jobs)
        assert all(o.ok for o in outcomes)
        for span in job_spans.values():
            span.finish()
        root.finish()

        (trace,) = obs.tracer.traces()
        job_ids = {
            s["span_id"]: None for s in trace["spans"] if s["name"] == "install.job"
        }
        ops = [s for s in trace["spans"] if s["name"].startswith("driver.")]
        # Every job ran prepare+commit in all three domains, and every
        # op span — closed on whichever worker thread settled it —
        # parents to one of the job spans, never to the root directly.
        assert len(ops) == 8 * len(DOMAINS) * 2
        assert all(op["parent_id"] in job_ids for op in ops)
        assert all(op["status"] == "ok" for op in ops)
        assert obs.tracer.active_span_count == 0

    def test_op_spans_feed_per_domain_histograms(self):
        obs = self._obs()
        registry = self._registry()
        planner = BatchInstallPlanner(registry, max_workers=8, obs=obs)
        outcomes = planner.install([job_for(f"s{i}") for i in range(4)])
        assert all(o.ok for o in outcomes)
        for domain in DOMAINS:
            assert obs.histogram("driver.prepare", domain).count == 4
        # The spans time the control plane in wall time; the emulated
        # southbound latency passes on the clock: one prepare wave, then
        # the three commits in registry order.
        assert registry.clock.now == pytest.approx(0.003 + 3 * 0.001)
        # One token wait per southbound op (prepare + commit).
        assert obs.histogram("planner.token_wait", "alpha").count == 8

    def test_timed_out_op_span_closes_as_error_and_does_not_leak(self):
        obs = self._obs()
        registry = self._registry()
        stalled = registry.get("beta")
        stalled.stall()
        planner = BatchInstallPlanner(
            registry, max_workers=8, operation_timeout_s=0.15, obs=obs
        )
        root = obs.span("install.batch")
        job_span = obs.span("install.job", parent=root.context)
        job = InstallJob(
            slice_id="s-hang",
            attempts=[spec_map("s-hang")],
            span_context=job_span.context,
        )
        try:
            (outcome,) = planner.install([job])
            assert not outcome.ok
            job_span.finish("error", error=str(outcome.error))
            root.finish()
            # The deadline timer closed the hung op's span as an error
            # *at the deadline* — no span waits for the backend.
            (trace,) = obs.tracer.traces()
            errored = [
                s
                for s in trace["spans"]
                if s["name"].startswith("driver.") and s["status"] == "error"
            ]
            assert errored, "timed-out operation left no errored span"
            assert any("timed out" in (s["error"] or "") for s in errored)
            assert obs.tracer.active_span_count == 0
        finally:
            stalled.release_stall()
        # The late completion is compensated on release; the span
        # bookkeeping must stay settled (finish is idempotent).
        assert planner.ops_compensated == 1
        assert obs.tracer.active_span_count == 0

    def test_disabled_observability_keeps_engine_behavior(self):
        from repro.obs.registry import NOOP_OBS

        planner = BatchInstallPlanner(self._registry(), max_workers=8, obs=NOOP_OBS)
        outcomes = planner.install([job_for(f"s{i}") for i in range(4)])
        assert all(o.ok for o in outcomes)


class DepthProbe(MockDriver):
    """Records the deepest Python stack any ``_do_prepare`` ran under,
    and can resolve its *first* ``prepare_async`` from a clock event
    while every later future is already done when it is returned."""

    def __init__(self, domain: str, first_prepare_delay_s: float = 0.0, **kwargs):
        super().__init__(
            domain=domain, capacity_mbps=1e9, prepare_latency_s=first_prepare_delay_s,
            **kwargs,
        )
        self.deepest = 0

    def prepare_async(self, spec):
        future = super().prepare_async(spec)
        self.prepare_latency_s = 0.0
        return future

    def _do_prepare(self, spec):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        self.deepest = max(self.deepest, depth)
        return super()._do_prepare(spec)


class TestRunQueue:
    """Continuations are enqueued, never called: the stack under a
    southbound call is the same constant whatever the batch size, and
    an exception escaping one job's continuation is that job's
    failure alone."""

    PROBES = ("p0", "p1", "p2", "p3")

    def _settle(self, n_jobs: int, first_prepare_delay_s: float):
        """Install ``n_jobs`` on a fresh thread (so the measured stack
        is the planner's own) with every job in flight at once."""
        registry = DriverRegistry(
            [
                DepthProbe(
                    "p0",
                    first_prepare_delay_s=first_prepare_delay_s,
                    max_concurrent_installs=1,
                )
            ]
            + [DepthProbe(d) for d in self.PROBES[1:]]
        )
        planner = BatchInstallPlanner(registry, max_workers=n_jobs, batch_size=n_jobs)
        jobs = [
            InstallJob(
                slice_id=f"s{i}",
                attempts=[
                    {d: DomainSpec(slice_id=f"s{i}", throughput_mbps=1.0)
                     for d in self.PROBES}
                ],
            )
            for i in range(n_jobs)
        ]
        outcomes: List = []
        worker = threading.Thread(
            target=lambda: outcomes.extend(planner.install(jobs)), daemon=True
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setrecursionlimit(limit)
        assert not worker.is_alive(), "install_batch never returned"
        assert len(outcomes) == n_jobs and all(o.ok for o in outcomes)
        assert all(driver.commits == n_jobs for driver in registry.drivers())
        assert_zero_residue(registry)
        return max(driver.deepest for driver in registry.drivers())

    @pytest.mark.parametrize("first_prepare_delay_s", [0.05, 0.0])
    def test_stack_depth_is_constant_in_batch_size(self, first_prepare_delay_s):
        """Known defect 4.  One late completion with every other future
        done at attach used to start each queued job nested inside the
        previous one's completion (86 frames at 16 jobs,
        ``RecursionError`` and a hung ``install_batch`` at 256); the
        all-inline batch is the same chain without the clock event."""
        small = self._settle(16, first_prepare_delay_s)
        large = self._settle(256, first_prepare_delay_s)
        assert small == large < 30

    def test_raising_continuation_fails_its_job_only(self):
        """A sink that raises while one job's commit is being submitted
        used to vanish into ``Future``'s callback machinery and leave
        ``install_batch`` waiting for a job nobody would settle."""

        class Sink(ControlPlaneObservability):
            def span(self, name, parent=None, label="", **attributes):
                if name == "driver.commit" and attributes.get("slice_id") == "s2":
                    raise RuntimeError("sink on fire")
                return super().span(name, parent=parent, label=label, **attributes)

        obs = Sink()
        registry = make_registry()
        planner = BatchInstallPlanner(registry, max_workers=4, obs=obs)
        outcomes = planner.install([job_for(f"s{i}", attempts=2) for i in range(5)])
        assert [o.ok for o in outcomes] == [True, True, False, True, True]
        error = outcomes[2].error
        assert isinstance(error, TransactionError) and error.domain == "planner"
        assert "unexpected RuntimeError: sink on fire" in str(error)
        # Unwound, not abandoned — and not retried: one attempt's worth
        # of prepares, all rolled back.
        assert [k for k, _, _ in outcomes[2].trail] == ["prepared"] * 3 + [
            "rolled_back"
        ] * 3
        assert_zero_residue(registry)
        for driver in registry.drivers():
            assert {r.slice_id for r in driver.reservations()} == {
                "s0", "s1", "s3", "s4",
            }
        assert obs.tracer.active_span_count == 0

    def test_driver_that_cannot_describe_itself_fails_jobs_not_the_batch(self):
        class Broken(MockDriver):
            def capabilities(self):
                raise RuntimeError("no capabilities today")

        registry = DriverRegistry([MockDriver(domain="alpha"), Broken(domain="beta")])
        planner = BatchInstallPlanner(registry)
        specs = {d: DomainSpec(slice_id="s0", throughput_mbps=1.0) for d in ("alpha", "beta")}
        outcomes = planner.install(
            [InstallJob(slice_id="s0", attempts=[specs]), InstallJob(slice_id="s1", attempts=[])]
        )
        assert [o.ok for o in outcomes] == [False, False]
        assert "unexpected RuntimeError: no capabilities today" in str(outcomes[0].error)
        assert "no install attempts" in str(outcomes[1].error)
        assert registry.get("alpha").prepares == 0

    def test_keyboard_interrupt_on_the_draining_thread_propagates(self):
        def interrupt(reservations):
            raise KeyboardInterrupt

        job = InstallJob(slice_id="s0", attempts=[spec_map("s0")], validate=interrupt)
        with pytest.raises(KeyboardInterrupt):
            BatchInstallPlanner(make_registry()).install([job])


def build_window_stack(registry_extras=(), **config):
    """An orchestrator over the four real (in-process) adapters of a
    testbed big enough for a 64-slice window, plus ``registry_extras``."""
    testbed = build_testbed(
        TestbedConfig(
            n_enbs=8, max_plmns_per_enb=12, plmn_pool_size=80,
            edge_nodes=4, core_nodes=16,
        )
    )
    for driver in registry_extras:
        testbed.registry.register(driver)
    orchestrator = Orchestrator(
        sim=Simulator(),
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        registry=testbed.registry,
        streams=RandomStreams(seed=3),
        config=OrchestratorConfig(**config),
    )
    orchestrator.start()
    return testbed, orchestrator


def window_of(n: int):
    return [(make_request(throughput_mbps=2.0), ConstantProfile(2.0)) for _ in range(n)]


class TestWindowOverRealAdapters:
    def test_in_process_window_starts_no_thread(self, monkeypatch):
        """The four simulator adapters resolve their futures on the
        caller's thread, a ``MockDriver`` completes on the registry's
        clock and deadlines are events on it: a 64-job window with
        southbound latency, one hung commit under a deadline, and the
        compensation of that straggler once the stall is released,
        costs zero thread starts (eight per job — 512 — before the
        adapters resolved inline; one per mock operation before the
        clock)."""
        slow = MockDriver(
            "slow", capacity_mbps=1e6, max_concurrent_installs=8,
            prepare_latency_s=0.005, commit_latency_s=0.001,
        )
        hung = MockDriver("hung", capacity_mbps=1e6, max_concurrent_installs=8)
        _, orchestrator = build_window_stack(
            (slow, hung), install_workers=64, install_batch_size=64, install_timeout_s=5.0
        )
        hung.stall(kinds=("commit",))
        started: List[str] = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        decisions = orchestrator.install_admitted_batch(window_of(64))
        hung.release_stall()  # the straggler lands and is released
        monkeypatch.undo()
        assert started == []
        assert sum(d.admitted for d in decisions) == 63
        assert orchestrator.planner.ops_timed_out == 1
        assert orchestrator.planner.ops_compensated == 1
        assert hung.releases == 1 and hung.held_mbps == pytest.approx(committed_mbps(hung))

    def test_mixed_completion_modes_in_one_batch(self):
        """Inline adapters, a clock-completed backend, a cap-1 backend
        with waiters queued on its token and one hung operation under a
        deadline, all in one batch: the run queue takes completions
        from every source, healthy jobs commit inside the stall, the
        hung job alone fails, and its straggler leaves nothing behind."""
        timeout_s, release_after_s, n_jobs = 0.2, 1.5, 12
        slow = MockDriver(
            "slow", capacity_mbps=1e6, max_concurrent_installs=8,
            prepare_latency_s=0.005,
        )
        serial = MockDriver("serial", capacity_mbps=1e6, max_concurrent_installs=1)
        hung = MockDriver("hung", capacity_mbps=1e6, max_concurrent_installs=8)
        testbed, orchestrator = build_window_stack(
            (slow, serial, hung),
            install_workers=n_jobs, install_batch_size=n_jobs,
            install_timeout_s=timeout_s, observability=True,
        )
        clock = testbed.registry.clock
        hung.stall(kinds=("commit",))
        clock.schedule(release_after_s, hung.release_stall)
        decisions = orchestrator.install_admitted_batch(window_of(n_jobs))
        # Settled at the deadline, the stall still in force.
        assert clock.now < release_after_s and hung.commits == n_jobs - 1
        admitted = {d.slice_id for d in decisions if d.admitted}
        (failed,) = [d for d in decisions if not d.admitted]
        assert len(admitted) == n_jobs - 1
        assert "commit timed out" in failed.reason
        assert orchestrator.planner.ops_timed_out == 1
        # Healthy jobs hold everywhere already.
        for driver in testbed.registry.drivers():
            held = {
                r.slice_id
                for r in driver.reservations()
                if r.state is ReservationState.COMMITTED
            }
            assert admitted <= held, driver.domain
        assert orchestrator.obs.tracer.active_span_count == 0
        # The parked commit lands at the release and is released again.
        clock.run_until(release_after_s)
        assert orchestrator.planner.ops_compensated == 1
        for driver in testbed.registry.drivers():
            assert {r.slice_id for r in driver.reservations()} == admitted
            assert all(
                r.state is ReservationState.COMMITTED for r in driver.reservations()
            )
        assert hung.held_mbps == pytest.approx(committed_mbps(hung))
        assert orchestrator.obs.tracer.active_span_count == 0

    def test_late_compensation_leaves_one_journal_record(self, tmp_path):
        """Durable orchestrator: a commit that outlives its deadline is
        released when it finally lands, after its window settled — the
        one reservation transition no job trail carries, so the planner
        hands it to ``DurableImage.journal_driver_record``."""
        hung = MockDriver("hung", capacity_mbps=1e6, max_concurrent_installs=8)
        _, orchestrator = build_window_stack(
            (hung,), install_timeout_s=0.15, durability_dir=str(tmp_path)
        )
        hung.stall(kinds=("commit",))
        try:
            (decision,) = orchestrator.install_admitted_batch(window_of(1))
            assert not decision.admitted and "commit timed out" in decision.reason
            settled_lsn = orchestrator.store.last_lsn
        finally:
            hung.release_stall()
        assert orchestrator.store.last_lsn > settled_lsn, "the late compensation was never journaled"
        late = orchestrator.store.records(after_lsn=settled_lsn)
        assert [r.record_type for r in late] == ["driver.compensated"]
        (record,) = [
            r for r in orchestrator.store.records() if r.record_type == "driver.compensated"
        ]
        assert record.data["domain"] == "hung"
        assert record.data["slice_id"] == decision.slice_id
        assert record.data["reservation_id"].startswith("hung-res-")
        assert orchestrator.planner.ops_compensated == 1
        assert hung.reservations() == [] and hung.held_mbps == 0.0
        orchestrator.store.close()
