"""Crash-recovery chaos: kill the control plane mid-16-job-batch.

The scenario the acceptance criteria pin down:

1. a first wave of slices installs and is acknowledged (journaled),
2. a 16-job concurrent batch launches with a chaos domain stalling a
   few southbound commits mid-flight,
3. the orchestrator "dies" (its store stops accepting writes — the
   exact semantics of a SIGKILL'd process whose buffered acks never
   land) while those commits are parked,
4. the southbound keeps running and finishes the in-flight work, like
   real controllers would,
5. a fresh control plane restores from snapshot+journal and reconciles.

Invariants verified after recovery:

- **zero lost COMMITTED slices** — every slice the southbound holds
  fully committed is re-adopted (acked *and* never-acked ones),
- **zero leaked reservations** — driver state contains exactly the
  adopted slices; injected orphans are compensated,
- **advance bookings intact** — the promised window survives, rebased,
- the journaled-but-uninstalled admission is back in the queue,
- ``held == Σ COMMITTED`` exactly, per domain.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.slices import SliceState
from repro.drivers.base import DomainSpec, ReservationState
from repro.store import RecoveryManager
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.store.conftest import make_orchestrator, reopen_store
from tests.store.durable_reference import live_state

MBPS = 5.0
FIRST_WAVE = 8
BATCH = 16
STALLED = 4


def _wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _committed_demand(driver) -> float:
    return sum(
        r.spec.throughput_mbps * r.spec.effective_fraction
        for r in driver.list_reservations()
        if r.state is ReservationState.COMMITTED
    )


def test_kill_mid_batch_recovers_without_losing_slices(
    durable_testbed, tmp_path
):
    directory = str(tmp_path / "store")
    firewall = durable_testbed.registry.get("firewall")
    first = make_orchestrator(durable_testbed, directory=directory)
    first.start()

    # --- 1. acknowledged churn -------------------------------------------
    wave = [
        (make_request(throughput_mbps=MBPS), ConstantProfile(MBPS))
        for _ in range(FIRST_WAVE)
    ]
    decisions = first.install_admitted_batch(wave)
    assert all(d.admitted for d in decisions)
    acked_ids = {d.slice_id for d in decisions}

    # A promise for the future + a journaled admission still queued.
    booking_request = make_request(throughput_mbps=MBPS, duration_s=600.0)
    assert first.submit_advance(
        booking_request, ConstantProfile(MBPS), start_time=1_000.0
    ).admitted
    queued_request = make_request(throughput_mbps=MBPS)
    first.enqueue_admitted(queued_request, ConstantProfile(MBPS))

    # --- 2. the 16-job batch, 4 commits stalled mid-flight ---------------
    batch = [
        (make_request(throughput_mbps=MBPS), ConstantProfile(MBPS))
        for _ in range(BATCH)
    ]
    firewall.stall(STALLED, kinds=("commit",))
    batch_decisions = []

    def run_batch() -> None:
        batch_decisions.extend(first.install_admitted_batch(batch))

    worker = threading.Thread(target=run_batch, daemon=True)
    worker.start()
    assert _wait_until(lambda: firewall.stalled_ops >= STALLED), (
        f"only {firewall.stalled_ops}/{STALLED} commits stalled"
    )

    # --- 3. SIGKILL the control plane ------------------------------------
    pre_crash_lsn = first.store.last_lsn
    first.store.close()  # writes from the dead process never land
    assert pre_crash_lsn > 0

    # --- 4. the southbound finishes what was in flight --------------------
    firewall.release_stall()
    worker.join(timeout=30.0)
    assert not worker.is_alive()
    assert all(d.admitted for d in batch_decisions)  # southbound truth

    # Orphans: residue of installs that died before any journal record
    # (crash between prepare/commit and the WAL append).
    orphan_prepared = firewall.prepare(
        DomainSpec(slice_id="slice-orphan-prepared", throughput_mbps=7.0)
    )
    orphan_committed = firewall.prepare(
        DomainSpec(slice_id="slice-orphan-committed", throughput_mbps=9.0)
    )
    firewall.commit(orphan_committed)
    assert orphan_prepared.state is ReservationState.PREPARED

    # --- 5. restore a fresh control plane ---------------------------------
    restarted = make_orchestrator(durable_testbed, store=reopen_store(directory))
    restarted.start()
    report = RecoveryManager(restarted).restore()

    # Zero lost COMMITTED slices: the acked first wave AND the whole
    # mid-flight batch (southbound committed it all) are adopted.
    assert report.slices_lost == 0, report.lost_slice_ids
    assert report.slices_adopted == FIRST_WAVE + BATCH
    live_ids = {s.slice_id for s in restarted.live_slices()}
    assert acked_ids <= live_ids
    assert len(live_ids) == FIRST_WAVE + BATCH

    # Zero leaked reservations: every domain holds exactly the adopted
    # slices, all COMMITTED; the injected orphans were compensated.
    assert report.orphans_compensated == 2
    for driver in durable_testbed.registry.drivers():
        reservations = driver.list_reservations()
        assert {r.slice_id for r in reservations} == live_ids, driver.domain
        assert all(
            r.state is ReservationState.COMMITTED for r in reservations
        ), driver.domain

    # held == Σ COMMITTED, exactly, on the chaos domain.
    assert firewall.held_mbps == pytest.approx((FIRST_WAVE + BATCH) * MBPS)
    assert firewall.held_mbps == pytest.approx(_committed_demand(firewall))

    # Advance booking intact (window rebased onto the new clock).
    booking = restarted.calendar.get(booking_request.request_id)
    assert booking is not None
    assert booking.end - booking.start == pytest.approx(
        600.0 + restarted.config.deploy_time_s
    )

    # The journaled-but-uninstalled admission is queued again.
    assert restarted.pending_installs == 1

    # And the recovered control plane actually *runs*: slices activate,
    # the queued admission installs on the next epoch.
    restarted.sim.run_until(restarted.config.monitoring_epoch_s + 5.0)
    states = {s.state for s in restarted.live_slices()}
    assert states <= {SliceState.ACTIVE, SliceState.DEPLOYING}
    assert restarted.pending_installs == 0
    assert len(restarted.live_slices()) == FIRST_WAVE + BATCH + 1


def test_double_crash_restores_from_snapshot(durable_testbed, tmp_path):
    """A leader checkpoint, a crash, a recovery that writes no snapshot
    of its own, and a second crash: the second restore replays the
    leader's snapshot plus a tail holding the first recovery's rebase
    record, and converges to the state the first recovery left."""
    directory = str(tmp_path / "store")
    first = make_orchestrator(durable_testbed, directory=directory)
    first.start()
    decisions = first.install_admitted_batch(
        [
            (make_request(throughput_mbps=MBPS), ConstantProfile(MBPS))
            for _ in range(4)
        ]
    )
    assert all(d.admitted for d in decisions)
    first.sim.run_until(70.0)  # ACTIVE, and one durable tick past them
    snapshot_lsn = first.durable.checkpoint()["checkpoint_lsn"]
    first.sim.run_until(130.0)
    first.store.close()

    second = make_orchestrator(durable_testbed, store=reopen_store(directory))
    second.start()
    first_report = RecoveryManager(second).restore()
    assert first_report.slices_adopted == 4
    second.sim.run_until(200.0)
    recovered = live_state(second)
    second.store.close()

    store = reopen_store(directory)
    assert store.snapshot_lsn == snapshot_lsn
    tail = [r.record_type for r in store.records(snapshot_lsn)]
    assert tail.count("recovery.rebased") == 1
    third = make_orchestrator(durable_testbed, store=store)
    third.start()
    second_report = RecoveryManager(third).restore()
    assert second_report.slices_adopted == 4
    assert second_report.slices_lost == 0
    assert second_report.snapshot_lsn == snapshot_lsn
    assert {s.slice_id for s in third.live_slices()} == {
        d.slice_id for d in decisions
    }
    # The second crash came at the t=180 tick of the first recovery's
    # clock: every adopted instant is shifted by exactly that much.
    rebased = live_state(third)
    for slice_id, image in recovered["live"].items():
        again = rebased["live"][slice_id]
        assert again["activated_at"] == image["activated_at"] - 180.0
        assert again["window"][1] == image["window"][1] - 180.0
