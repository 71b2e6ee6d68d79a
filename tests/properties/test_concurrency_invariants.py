"""Property-based invariants of the concurrent install engine.

Randomized schedules of concurrent installs and cancels run against a
multi-domain :class:`~repro.drivers.mock.MockDriver` registry through
the :class:`~repro.drivers.planner.BatchInstallPlanner`, with prepare/
commit/release failures injected at random.  After quiescence the
conservation invariant must hold *exactly* in every domain:

    physically held capacity  ==  Σ demand of COMMITTED reservations

and no reservation may be stranded in a transient state (PREPARED /
mid-unwind).  This is the concurrent generalization of the zero-residue
rollback invariant the sequential transaction tests pin down.
"""

from __future__ import annotations

import os
import threading
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.drivers.base import DomainSpec, ReservationState
from repro.drivers.mock import MockDriver
from repro.drivers.planner import BatchInstallPlanner, InstallJob
from repro.drivers.registry import DriverRegistry

DOMAINS = ("radio", "path", "compute")

#: The nightly CI flake-hunt multiplies every property suite's example
#: budget (HYPOTHESIS_EXAMPLE_MULTIPLIER=5) without touching the fast
#: per-push defaults.
EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=12 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: One randomized operation of the schedule.
operation = st.one_of(
    st.tuples(st.just("install"), st.floats(min_value=1.0, max_value=40.0)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("fail_prepare"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("fail_commit"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("fail_release"), st.integers(min_value=0, max_value=2)),
)


def _committed_demand(driver: MockDriver) -> float:
    return sum(
        r.spec.throughput_mbps * r.spec.effective_fraction
        for r in driver.reservations()
        if r.state is ReservationState.COMMITTED
    )


@SLOW
@given(
    ops=st.lists(operation, min_size=1, max_size=24),
    capacity=st.floats(min_value=50.0, max_value=400.0),
    batch_size=st.integers(min_value=1, max_value=8),
)
def test_concurrent_schedule_conserves_capacity(ops, capacity, batch_size):
    """After any randomized concurrent install/cancel/failure schedule,
    total reserved capacity equals the sum of COMMITTED reservations."""
    registry = DriverRegistry(
        [
            MockDriver(domain=d, capacity_mbps=capacity, max_concurrent_installs=4)
            for d in DOMAINS
        ]
    )
    planner = BatchInstallPlanner(registry, max_workers=4, batch_size=batch_size)
    counter = [0]
    installed: List[str] = []  # slice ids whose install committed
    pending_jobs: List[InstallJob] = []

    def flush_installs() -> None:
        if not pending_jobs:
            return
        jobs, pending_jobs[:] = list(pending_jobs), []
        for outcome in planner.install(jobs):
            if outcome.ok:
                installed.append(outcome.job.slice_id)

    def release_all(slice_id: str) -> None:
        """Concurrent cancel: free the slice in every domain (reverse
        install order), tolerating injected release failures — a failed
        release must leave the reservation COMMITTED (retryable), never
        stranded."""
        for domain in reversed(DOMAINS):
            driver = registry.get(domain)
            try:
                driver.release(slice_id)
            except Exception:
                continue

    cancel_threads: List[threading.Thread] = []
    for op, value in ops:
        if op == "install":
            counter[0] += 1
            slice_id = f"s{counter[0]:03d}"
            pending_jobs.append(
                InstallJob(
                    slice_id=slice_id,
                    attempts=[
                        {
                            d: DomainSpec(slice_id=slice_id, throughput_mbps=value)
                            for d in DOMAINS
                        }
                    ],
                )
            )
        elif op == "cancel":
            flush_installs()
            if installed:
                victim = installed.pop(value % len(installed))
                thread = threading.Thread(target=release_all, args=(victim,))
                thread.start()
                cancel_threads.append(thread)
        elif op == "fail_prepare":
            registry.get(DOMAINS[value % len(DOMAINS)]).fail_next_prepare += 1
        elif op == "fail_commit":
            registry.get(DOMAINS[value % len(DOMAINS)]).fail_next_commit += 1
        elif op == "fail_release":
            registry.get(DOMAINS[value % len(DOMAINS)]).fail_next_release += 1
    flush_installs()
    for thread in cancel_threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "cancel thread deadlocked"
    # A cancel that hit an injected release failure leaves its
    # reservation COMMITTED and its capacity held — that is the
    # *retryable* shape the invariant below accepts; what it rejects is
    # any PREPARED/half-unwound straggler or held-vs-committed skew.
    # --- The invariant ------------------------------------------------
    for driver in registry.drivers():
        committed = _committed_demand(driver)
        assert driver.held_mbps == pytest.approx(committed), (
            f"{driver.domain}: holds {driver.held_mbps} but commitments "
            f"sum to {committed}"
        )
        for reservation in driver.reservations():
            assert reservation.state is ReservationState.COMMITTED, (
                f"{driver.domain}: {reservation.slice_id} stranded in "
                f"{reservation.state.value}"
            )
        assert driver.held_mbps <= driver.capacity_mbps + 1e-9


@SLOW
@given(
    n_jobs=st.integers(min_value=2, max_value=12),
    mbps=st.floats(min_value=5.0, max_value=30.0),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_oversubscribed_batch_admits_exactly_what_fits(n_jobs, mbps, seed):
    """A burst larger than the pool: some jobs win, some lose, but the
    winners' demand never exceeds capacity and losers hold nothing."""
    capacity = mbps * max(1, n_jobs // 2)  # roughly half the burst fits
    registry = DriverRegistry(
        [
            MockDriver(domain=d, capacity_mbps=capacity, max_concurrent_installs=4)
            for d in DOMAINS
        ]
    )
    planner = BatchInstallPlanner(registry, max_workers=4)
    jobs = [
        InstallJob(
            slice_id=f"b{i}",
            attempts=[
                {d: DomainSpec(slice_id=f"b{i}", throughput_mbps=mbps) for d in DOMAINS}
            ],
        )
        for i in range(n_jobs)
    ]
    outcomes = planner.install(jobs)
    winners = {o.job.slice_id for o in outcomes if o.ok}
    for driver in registry.drivers():
        assert driver.held_mbps == pytest.approx(len(winners) * mbps)
        assert driver.held_mbps <= driver.capacity_mbps + 1e-9
        assert {r.slice_id for r in driver.reservations()} == winners
