"""Tests for the concurrent batch install planner.

The planner is the fleet-scale install engine: batches of install jobs
run concurrently over the driver registry, prepares fan out in
dependency waves under per-driver concurrency caps, and the two-phase
reverse-order unwind discipline must hold no matter how jobs
interleave.  The :class:`~repro.drivers.mock.MockDriver` provides the
thread-safe backend plus prepare/commit/release failure injection.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import pytest

from repro.drivers.base import DomainSpec, ReservationState
from repro.drivers.mock import MockDriver
from repro.drivers.planner import BatchInstallPlanner, InstallJob
from repro.drivers.registry import DriverRegistry
from repro.drivers.transaction import OperationTimeout


DOMAINS = ("alpha", "beta", "gamma")


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
    for driver in registry:
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
        for driver in registry:
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
        for driver in registry:
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
        for driver in registry:
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
        from repro.drivers.base import DriverError

        registry = make_registry()
        planner = BatchInstallPlanner(registry)

        def veto(reservations):
            raise DriverError("validator", "cross-domain check failed")

        job = InstallJob(slice_id="s0", attempts=[spec_map("s0")], validate=veto)
        (outcome,) = planner.install([job])
        assert not outcome.ok
        assert "cross-domain check failed" in str(outcome.error)
        assert_zero_residue(registry)
        for driver in registry:
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
            def __init__(self):
                super().__init__(domain="probe", max_concurrent_installs=2)
                self.inflight = 0
                self.max_inflight = 0
                self._gauge = threading.Lock()

            def _do_prepare(self, spec):
                with self._gauge:
                    self.inflight += 1
                    self.max_inflight = max(self.max_inflight, self.inflight)
                try:
                    import time

                    time.sleep(0.002)
                    return super()._do_prepare(spec)
                finally:
                    with self._gauge:
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
        assert probe.max_inflight <= 2

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
        for driver in registry:
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
                for d in registry
                if any(r.slice_id == outcome.job.slice_id for r in d.reservations())
            }
            assert held_in == (set(DOMAINS) if outcome.ok else set())


class TestStallIsolation:
    """One hung southbound domain must not stall the batch: the job
    that hit it times out and unwinds cleanly, every other job commits
    in its own latency, and the straggling operation is compensated in
    the background once the backend comes back."""

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

    @staticmethod
    def _wait_for(predicate, timeout_s: float = 5.0) -> bool:
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def test_stalled_job_times_out_while_healthy_jobs_commit(self):
        registry = self._registry()
        stalled_driver = registry.get("beta")
        stalled_driver.stall()  # next beta operation hangs
        planner = BatchInstallPlanner(
            registry, max_workers=16, operation_timeout_s=self.TIMEOUT_S
        )
        jobs = [job_for(f"s{i}") for i in range(16)]
        start = time.perf_counter()
        outcomes = planner.install(jobs)
        elapsed = time.perf_counter() - start
        try:
            failed = [o for o in outcomes if not o.ok]
            healthy = [o for o in outcomes if o.ok]
            # Exactly the job that hit the stall failed — with a timeout.
            assert len(failed) == 1 and len(healthy) == 15
            assert isinstance(failed[0].error, OperationTimeout)
            assert "timed out" in str(failed[0].error)
            assert planner.ops_timed_out == 1
            # The batch settled at ~the deadline, not at stall release
            # (which has not happened yet) — the 15 healthy jobs never
            # waited on the hung domain.
            assert elapsed < 3.0, f"batch took {elapsed:.2f}s under one stall"
            assert stalled_driver.stalled_ops == 1
        finally:
            stalled_driver.release_stall()
        # The straggler completes after release and is compensated:
        # eventually the failed job holds nothing anywhere.
        failed_id = failed[0].job.slice_id
        assert self._wait_for(
            lambda: all(
                r.slice_id != failed_id
                for driver in registry
                for r in driver.reservations()
            )
        ), "late completion of the stalled operation was not compensated"
        assert_zero_residue(registry)
        # Healthy jobs still hold everywhere.
        for driver in registry:
            assert {r.slice_id for r in driver.reservations()} == {
                o.job.slice_id for o in healthy
            }

    def test_batch_settles_at_deadline_before_stall_release(self):
        """A thread-per-job engine cannot settle a batch before a hung
        blocking call returns; the event-driven engine settles at the
        deadline, healthy jobs long since committed."""
        release_after_s = 0.5
        registry = self._registry()
        stalled_driver = registry.get("beta")
        stalled_driver.stall()
        releaser = threading.Timer(release_after_s, stalled_driver.release_stall)
        releaser.daemon = True
        releaser.start()
        planner = BatchInstallPlanner(
            registry, max_workers=8, operation_timeout_s=0.1
        )
        start = time.perf_counter()
        outcomes = planner.install([job_for(f"s{i}") for i in range(8)])
        elapsed = time.perf_counter() - start
        still_stalled = releaser.is_alive()
        releaser.cancel()
        stalled_driver.release_stall()
        assert still_stalled and elapsed < release_after_s
        assert sum(o.ok for o in outcomes) == 7
        assert sum(isinstance(o.error, OperationTimeout)
                   for o in outcomes if not o.ok) == 1

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
        start = time.perf_counter()
        outcomes = planner.install(jobs)
        elapsed = time.perf_counter() - start
        try:
            assert all(not o.ok for o in outcomes)
            assert all(isinstance(o.error, OperationTimeout) for o in outcomes)
            assert planner.ops_timed_out == 4
            assert elapsed < 3.0, f"queued jobs wedged for {elapsed:.2f}s"
        finally:
            driver.release_stall()
        # Only the op that actually held the token launched; its late
        # completion is compensated, the queued ones never ran.
        assert self._wait_for(
            lambda: all(not d.reservations() for d in registry)
        )
        assert driver.prepares <= 1

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
        try:
            assert not outcome.ok
            assert isinstance(outcome.error, OperationTimeout)
            # Attempts 2 and 3 never ran: the straggler is still parked
            # (its counter bumps only past the stall gate) and no other
            # beta prepare was issued.
            assert stalled_driver.prepares == 0
            assert registry.get("alpha").prepares == 1
        finally:
            stalled_driver.release_stall()
        assert self._wait_for(
            lambda: all(
                not driver.reservations() for driver in registry
            )
        )

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
        start = time.perf_counter()
        (outcome,) = planner.install([job_for("s0")])
        elapsed = time.perf_counter() - start
        try:
            assert not outcome.ok
            assert "unwind also failed" in str(outcome.error)
            assert "timed out" in str(outcome.error)
            assert elapsed < 3.0, f"hung rollback held the batch {elapsed:.2f}s"
            # alpha's compensation landed on time; beta's is parked.
            assert registry.get("alpha").rollbacks == 1
        finally:
            hung.release_stall()
        # The parked rollback completes after release — it *is* the
        # compensation, so the residue clears without further action.
        assert self._wait_for(
            lambda: all(not driver.reservations() for driver in registry)
        )
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
        driver = registry.get("slow")
        time.sleep(0.6)  # past the would-be completion
        assert driver.prepares == 0
        assert driver.reservations() == []
        assert planner.ops_compensated == 0


class TestDurabilityHooks:
    """The planner's durability surface: per-reservation audit records
    (``on_record``) and the buffered northbound incidents
    (``drain_events``) the orchestrator surfaces on its event feed."""

    def test_on_record_sees_prepare_and_commit_of_every_domain(self):
        registry = make_registry()
        records: List[tuple] = []
        lock = threading.Lock()

        def recorder(kind, domain, slice_id, reservation_id):
            with lock:
                records.append((kind, domain, slice_id))

        planner = BatchInstallPlanner(registry, on_record=recorder)
        outcomes = planner.install([job_for("s1"), job_for("s2")])
        assert all(o.ok for o in outcomes)
        for slice_id in ("s1", "s2"):
            for domain in DOMAINS:
                assert ("driver.prepared", domain, slice_id) in records
                assert ("driver.committed", domain, slice_id) in records

    def test_on_record_sees_the_unwind(self):
        registry = make_registry()
        registry.get("gamma").fail_next_prepare = 1
        records: List[tuple] = []
        lock = threading.Lock()
        planner = BatchInstallPlanner(
            registry,
            on_record=lambda kind, domain, sid, rid: (
                lock.acquire(), records.append((kind, domain, sid)), lock.release()
            ),
        )
        (outcome,) = planner.install([job_for("s-fail")])
        assert not outcome.ok
        unwound = [(k, d) for k, d, sid in records if k == "driver.rolled_back"]
        assert set(unwound) == {
            ("driver.rolled_back", "alpha"),
            ("driver.rolled_back", "beta"),
        }

    def test_raising_recorder_never_fails_the_install(self):
        registry = make_registry()

        def broken(*args):
            raise RuntimeError("journal on fire")

        planner = BatchInstallPlanner(registry, on_record=broken)
        (outcome,) = planner.install([job_for("s-audit")])
        assert outcome.ok

    def test_timeout_and_compensation_buffered_as_events(self):
        registry = make_registry(max_concurrent_installs=8)
        stalled = registry.get("beta")
        stalled.stall()
        planner = BatchInstallPlanner(registry, operation_timeout_s=0.15)
        (outcome,) = planner.install([job_for("s-hang")])
        assert not outcome.ok
        drained = planner.drain_events()
        kinds = [k for k, _ in drained]
        assert "driver.op_timeout" in kinds
        payload = dict(drained)[("driver.op_timeout")]
        assert payload["domain"] == "beta"
        assert payload["slice_id"] == "s-hang"
        # The straggler completes and is compensated in the background.
        stalled.release_stall()
        deadline = time.time() + 5.0
        while time.time() < deadline and planner.ops_compensated == 0:
            time.sleep(0.01)
        assert planner.ops_compensated == 1
        late = planner.drain_events()
        assert ("driver.compensated", {
            "domain": "beta", "kind": "prepare", "slice_id": "s-hang",
        }) in late
        # Draining clears the buffer.
        assert planner.drain_events() == []


class TestObservability:
    """Span propagation through the async engine: the job's carried
    SpanContext must pin every southbound op span to the right parent
    no matter which completion/timer thread closes it, and a timed-out
    op must close its span as an error rather than leak it."""

    def _obs(self):
        from repro.obs.registry import ControlPlaneObservability

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

        (trace,) = obs.traces()
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
        planner = BatchInstallPlanner(self._registry(), max_workers=8, obs=obs)
        outcomes = planner.install([job_for(f"s{i}") for i in range(4)])
        assert all(o.ok for o in outcomes)
        for domain in DOMAINS:
            prepare = obs.histogram("driver.prepare", domain)
            assert prepare.count == 4
            # The emulated southbound latency is visible in the data.
            assert prepare.max_ms >= 1.0
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
            (trace,) = obs.traces()
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
        # Late completion is compensated in the background; the span
        # bookkeeping must stay settled (finish is idempotent).
        deadline = time.time() + 5.0
        while time.time() < deadline and planner.ops_compensated == 0:
            time.sleep(0.01)
        assert obs.tracer.active_span_count == 0

    def test_disabled_observability_keeps_engine_behavior(self):
        from repro.obs.registry import NOOP_OBS

        planner = BatchInstallPlanner(self._registry(), max_workers=8, obs=NOOP_OBS)
        outcomes = planner.install([job_for(f"s{i}") for i in range(4)])
        assert all(o.ok for o in outcomes)
        assert NOOP_OBS.traces() == []
