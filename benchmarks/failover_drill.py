"""The cluster failover drill, runnable standalone or from the CI gate.

SIGKILL a shard leader mid-16-job-batch (four southbound commits parked
behind a chaos stall), let the warm standby detect the stale lease,
promote through the RecoveryManager reconciliation, and verify the
acceptance invariants:

- **zero lost** — every slice the southbound holds COMMITTED is
  re-adopted by the promoted control plane,
- **zero leaked** — every domain's reservations are exactly the live
  slices, all COMMITTED, and ``held == Σ COMMITTED`` exactly,
- the untouched shard serves through the whole outage,
- the measured ``recovery_s`` (lease takeover → reconciled) and the
  promoted standby's recovery trace are published, with
  ``recovery_ms_per_adopted_slice`` and ``promotion_journal_records``
  — the LSNs the promotion consumed on the victim shard, which the CI
  gate holds at 2 or below (adoption is in-memory; the
  ``recovery.rebased`` record is its one durable statement, and
  ``recovery.completed`` closes it),
- ``promotion_profiles_derived`` and ``promotion_snapshot_parses``:
  keyed draws made (``default_profile`` and ``RandomStreams.draws``
  calls: traffic profiles and UE populations) and snapshots decoded
  inside the watch cycle that promotes.  The CI gate holds both at 0:
  an adopted slice's profile waits for its first epoch, the reopened
  store reads the snapshot LSN off the file's head, and the standby's
  image is the recovery input,
- ``promotion_template_builds`` and ``promotion_fleet_serialisations``:
  vEPC Heat templates built and full-fleet serialisations (snapshot
  writes plus ``ReplayState.digest`` folds) inside the same watch cycle.
  The CI gate holds the first at 1 or below (the bulk adoption reads
  the vEPC size once) and the second at 0 (no checkpoint closes a
  recovery),
- ``promotion_fsyncs``: ``os.fsync`` calls inside the same watch cycle,
  held at 2 or below by the CI gate — the lease file and the lease
  directory its epoch bump renamed into; the two records wait for the
  journal's group commit,
- the per-slice work the batch adoption does once or not at all,
  counted inside the promotion's ``RecoveryManager.restore`` and gated
  by the CI gate: ``promotion_cell_scans`` (``RanController.enbs``
  calls, at most 1: the fleet is sized off one reference cell),
  ``promotion_calendar_commits`` (``ResourceCalendar.commit_many``
  calls, at most 1: the windows enter the index by one sort),
  ``promotion_plmn_formats`` (``PlmnPool._mcc_mnc`` calls, 0: a claim
  validates an identity by arithmetic) and
  ``promotion_checked_transitions`` (``NetworkSlice.transition`` calls,
  0: an adopted slice goes live with one state check),
- what re-arming the promoted shard costs, gated by the CI gate: the
  successor standby's first poll must decode no snapshot
  (``successor_snapshot_parses == 0``; the leader checkpointed before
  the standby first polled, so a cold successor would decode one) and
  fold no more than the promotion journaled
  (``successor_first_poll_records <= promotion_journal_records``): it
  starts from the promoted fold,
- ``first_epoch_seed_sequences``: ``numpy.random.SeedSequence``
  constructions in the promoted shard's first monitoring epoch, which
  draws every adopted slice's profile (``first_epoch_profiles_drawn``).
  The CI gate holds it at 0: every id-keyed draw is a counter
  (``RandomStreams.draws``), and the epoch's shared ``demand-noise``
  stream is made when the loop starts,
- ``promotion_tracked_objects_per_slice``: GC-tracked objects the
  adoption batch leaves alive per slice, replayed on a memory-only twin
  after the drill (published, never gated: CPython versions differ),
- ``recovery_split_s``: ``recovery_s`` cut into the adoption call and
  the rest (published, never gated).

Usage::

    PYTHONPATH=src:. python benchmarks/failover_drill.py \
        [--out DRILL.json] [--trace-dir failover-trace]

``--trace-dir`` writes the promoted standby's recovery trace (the
promotion report, the per-shard journal status, and the post-failover
metrics scrape) as separate artifact files for the nightly upload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time

MBPS = 5.0
FIRST_WAVE = 4
BATCH = 16
STALLED = 4
KILLED = 0
LEASE_TIMEOUT_S = 0.05


def _chaos_testbed():
    from repro.drivers.mock import MockDriver
    from repro.experiments.testbed import TestbedConfig, build_testbed

    testbed = build_testbed(
        TestbedConfig(n_enbs=4, max_plmns_per_enb=12, plmn_pool_size=40)
    )
    testbed.registry.register(
        MockDriver("firewall", capacity_mbps=100_000.0, max_concurrent_installs=8)
    )
    return testbed


@contextlib.contextmanager
def _spying(
    owner, name: str, tally: dict, key: str, clock: bool = False,
    within: list | None = None, calls: list | None = None,
):
    """Add to ``tally[key]`` for each call to ``owner.name`` while open:
    1, or with ``clock`` the wall seconds the call took (several spies
    may share one key).  With ``within``, count only the calls made
    while that list is not empty (see :func:`_marking`); ``calls``
    collects each call's positional arguments."""
    real = getattr(owner, name)
    tally.setdefault(key, 0)

    def spy(*args, **kwargs):
        if calls is not None:
            calls.append(args)
        counted = within is None or bool(within)
        started = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            if counted:
                tally[key] += time.perf_counter() - started if clock else 1

    setattr(owner, name, spy)
    try:
        yield
    finally:
        setattr(owner, name, real)


@contextlib.contextmanager
def _marking(owner, name: str, marks: list):
    """Hold a mark in ``marks`` while a call to ``owner.name`` runs."""
    real = getattr(owner, name)

    def marked(*args, **kwargs):
        marks.append(name)
        try:
            return real(*args, **kwargs)
        finally:
            marks.pop()

    setattr(owner, name, marked)
    try:
        yield
    finally:
        setattr(owner, name, real)


def _tracked_objects_per_slice(testbed, pool_size: int, adoptions: list) -> float:
    """GC-tracked objects one adoption batch leaves alive, per adopted
    slice: the promotion's batch replayed on a memory-only twin control
    plane over the same southbound, outside every timed window.  Never
    gated: the figure differs between CPython versions."""
    import gc

    from repro.core.orchestrator import Orchestrator
    from repro.core.slices import PlmnPool
    from repro.sim.engine import Simulator

    twin = Orchestrator(
        sim=Simulator(), allocator=testbed.allocator, registry=testbed.registry,
        plmn_pool=PlmnPool(size=pool_size),
    )
    gc.collect()
    before = len(gc.get_objects())
    adopted = twin.adopt_recovered_slices(adoptions)
    gc.collect()
    return round((len(gc.get_objects()) - before) / max(len(adopted), 1), 2)


def run_failover_drill(failures: list, root: str | None = None) -> dict:
    """Run the drill; appends invariant violations to ``failures`` and
    returns the artifact payload (always, so a failed drill is still
    diagnosable from the numbers)."""
    import threading

    import numpy as np

    import repro.core.allocation as allocation_module
    from repro.cluster import ClusterConfig, ControlPlaneCluster
    from repro.core.calendar import ResourceCalendar
    from repro.core.orchestrator import Orchestrator
    from repro.core.slices import NetworkSlice, PlmnPool
    from repro.drivers.base import ReservationState
    from repro.ran.controller import RanController
    from repro.sim.randomness import RandomStreams
    from repro.store.codec import ReplayState
    from repro.store.recovery import RecoveryManager
    from repro.store.snapshot import SnapshotStore
    from repro.traffic.patterns import ConstantProfile
    from tests.conftest import make_request

    root = root or tempfile.mkdtemp(prefix="failover-drill-")
    cluster = ControlPlaneCluster(
        ClusterConfig(
            shards=2,
            durability_root=os.path.join(root, "store"),
            lease_timeout_s=LEASE_TIMEOUT_S,
            orchestrator={"monitoring_epoch_s": 60.0},
        ),
        testbeds=[_chaos_testbed(), _chaos_testbed()],
    )

    # One tenant per shard, deterministic (the ring is seedless).
    owners = {}
    for i in range(256):
        owners.setdefault(cluster.ring.shard_for(f"tenant-{i}"), f"tenant-{i}")
        if len(owners) == 2:
            break
    victim_tenant, other_tenant = owners[KILLED], owners[1 - KILLED]
    leader = cluster.shard(KILLED)
    firewall = leader.testbed.registry.get("firewall")

    def body(tenant):
        return {
            "service_type": "embb",
            "throughput_mbps": MBPS,
            "max_latency_ms": 50.0,
            "duration_s": 3_600.0,
            "price": 100.0,
            "penalty_rate": 1.0,
            "tenant_id": tenant,
        }

    # 1. acknowledged churn + a warm standby tailing the WAL.
    for _ in range(FIRST_WAVE):
        response = cluster.router.post(
            "/v1/slices", body=body(victim_tenant),
            headers={"x-tenant-id": victim_tenant},
        )
        if response.status != 201:
            failures.append(f"drill: first-wave create -> {response.status}")
    # A snapshot the standby decodes on its first poll, as a cold
    # successor would on its own.
    leader.orchestrator.durable.checkpoint()
    standby = cluster.standby_for(KILLED)
    standby.poll()

    # 2. the 16-job batch, 4 commits stalled mid-flight.
    batch = [
        (make_request(throughput_mbps=MBPS, tenant=victim_tenant),
         ConstantProfile(MBPS))
        for _ in range(BATCH)
    ]
    firewall.stall(STALLED, kinds=("commit",))
    decisions = []
    worker = threading.Thread(
        target=lambda: decisions.extend(
            leader.orchestrator.install_admitted_batch(batch)
        ),
        daemon=True,
    )
    worker.start()
    deadline = time.monotonic() + 10.0
    while firewall.stalled_ops < STALLED and time.monotonic() < deadline:
        time.sleep(0.005)
    if firewall.stalled_ops < STALLED:
        failures.append(
            f"drill: only {firewall.stalled_ops}/{STALLED} commits stalled"
        )

    # 3. SIGKILL the leader; 4. the southbound finishes in flight.
    cluster.kill_leader(KILLED)
    lsn_at_kill = leader.store.last_lsn
    firewall.release_stall()
    worker.join(timeout=30.0)
    if worker.is_alive() or not all(d.admitted for d in decisions):
        failures.append("drill: the mid-flight batch did not settle admitted")

    # The other shard serves through the outage.
    survivor = cluster.router.post(
        "/v1/slices", body=body(other_tenant),
        headers={"x-tenant-id": other_tenant},
    )
    if survivor.status != 201:
        failures.append(f"drill: surviving shard create -> {survivor.status}")

    # 5. the standby notices the stale lease and promotes.
    time.sleep(LEASE_TIMEOUT_S * 3)
    counts: dict = {}
    stages: dict = {}
    restoring: list = []
    adopt_calls: list = []
    with contextlib.ExitStack() as spies:
        for owner, name, key in (
            (Orchestrator, "default_profile", "profiles"),
            (RandomStreams, "draws", "profiles"),
            (SnapshotStore, "load_latest", "snapshots"),
            (allocation_module, "epc_template", "templates"),
            (SnapshotStore, "write", "serialisations"),
            (ReplayState, "digest", "serialisations"),
            (os, "fsync", "fsyncs"),
        ):
            spies.enter_context(_spying(owner, name, counts, key))
        # Per-slice work the batch adoption does once, or not at all,
        # counted inside the reconciliation only.
        spies.enter_context(_marking(RecoveryManager, "restore", restoring))
        for owner, name, key in (
            (RanController, "enbs", "cell_scans"),
            (ResourceCalendar, "commit_many", "calendar_commits"),
            (PlmnPool, "_mcc_mnc", "plmn_formats"),
            (NetworkSlice, "transition", "checked_transitions"),
        ):
            spies.enter_context(_spying(owner, name, counts, key, within=restoring))
        spies.enter_context(
            _spying(
                Orchestrator, "adopt_recovered_slices", stages, "adopt", clock=True,
                calls=adopt_calls,
            )
        )
        promotion = standby.tick()
    if promotion is None:
        failures.append("drill: standby never promoted")
        cluster.close()
        return {"promoted": False}
    cluster.adopt_promotion(KILLED, promotion)
    promoted = cluster.shard(KILLED)
    journal_records = promoted.store.last_lsn - lsn_at_kill
    # The standby that re-arms the shard, and its first poll.
    successor = cluster.standby_for(KILLED)
    with _spying(SnapshotStore, "load_latest", counts, "successor_snapshots"):
        successor_records = successor.poll()

    report = promotion.report
    expected = FIRST_WAVE + BATCH
    if report.slices_lost or report.slices_adopted != expected:
        failures.append(
            f"drill: adopted {report.slices_adopted}/{expected}, "
            f"lost {report.slices_lost} ({report.lost_slice_ids})"
        )
    live_ids = {s.slice_id for s in promoted.orchestrator.live_slices()}
    committed = sum(
        r.spec.throughput_mbps * r.spec.effective_fraction
        for r in firewall.list_reservations()
        if r.state is ReservationState.COMMITTED
    )
    for driver in leader.testbed.registry.drivers():
        reservations = driver.list_reservations()
        leaked = {r.slice_id for r in reservations} - live_ids
        dirty = [
            r for r in reservations
            if r.state is not ReservationState.COMMITTED
        ]
        if leaked or dirty:
            failures.append(
                f"drill: domain {driver.domain} leaked={sorted(leaked)} "
                f"non-committed={len(dirty)}"
            )
    if abs(firewall.held_mbps - expected * MBPS) > 1e-6:
        failures.append(
            f"drill: held {firewall.held_mbps} != {expected * MBPS} "
            "(held != sum COMMITTED)"
        )
    if abs(firewall.held_mbps - committed) > 1e-6:
        failures.append(
            f"drill: held {firewall.held_mbps} != committed {committed}"
        )

    payload = {
        "promoted": True,
        "shards": 2,
        "killed_shard": KILLED,
        "first_wave": FIRST_WAVE,
        "batch": BATCH,
        "stalled_commits": STALLED,
        "recovery_s": round(promotion.recovery_s, 4),
        "recovery_ms_per_adopted_slice": round(
            promotion.recovery_s * 1000.0 / max(report.slices_adopted, 1), 4
        ),
        "promotion_journal_records": journal_records,
        "promotion_profiles_derived": counts["profiles"],
        "promotion_snapshot_parses": counts["snapshots"],
        "promotion_template_builds": counts["templates"],
        "promotion_fleet_serialisations": counts["serialisations"],
        "promotion_fsyncs": counts["fsyncs"],
        "promotion_cell_scans": counts["cell_scans"],
        "promotion_calendar_commits": counts["calendar_commits"],
        "promotion_plmn_formats": counts["plmn_formats"],
        "promotion_checked_transitions": counts["checked_transitions"],
        "successor_snapshot_parses": counts["successor_snapshots"],
        "successor_first_poll_records": successor_records,
        "promotion_tracked_objects_per_slice": _tracked_objects_per_slice(
            leader.testbed, promoted.orchestrator.plmn_pool.capacity,
            adopt_calls[0][1] if adopt_calls else [],
        ),
        "recovery_split_s": {
            "adopt": round(stages["adopt"], 4),
            "rest": round(promotion.recovery_s - stages["adopt"], 4),
        },
        "replay_lag_records": promotion.replay_lag_records,
        "replay_floor_lsn": promotion.replay_floor_lsn,
        "lease_epoch": promotion.lease.epoch,
        "slices_adopted": report.slices_adopted,
        "slices_lost": report.slices_lost,
        "orphans_compensated": report.orphans_compensated,
        "held_mbps": firewall.held_mbps,
        "promotion": promotion.to_dict(),
        "journal_status": {
            str(k): cluster.shard(k).store.status() for k in owners
        },
    }
    # The promoted shard's first epoch draws every adopted profile.
    with _spying(np.random, "SeedSequence", payload, "first_epoch_seed_sequences"), \
            _spying(Orchestrator, "default_profile", payload, "first_epoch_profiles_drawn"):
        promoted.run_until(promoted.sim.now + promoted.orchestrator.config.monitoring_epoch_s)
    if payload["first_epoch_profiles_drawn"] < report.slices_adopted:
        failures.append(
            f"drill: the first epoch drew {payload['first_epoch_profiles_drawn']} "
            f"profiles for {report.slices_adopted} adopted slices"
        )
    cluster.close()
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="DRILL.json", help="summary path")
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="directory for the promoted standby's recovery-trace artifacts",
    )
    args = parser.parse_args(argv)
    failures: list = []
    payload = run_failover_drill(failures)
    payload["failures"] = failures
    payload["ok"] = not failures
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        with open(os.path.join(args.trace_dir, "promotion.json"), "w") as handle:
            json.dump(payload.get("promotion", {}), handle, indent=2, sort_keys=True)
        with open(os.path.join(args.trace_dir, "drill.json"), "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if failures:
        print("\nFAILOVER DRILL FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"\nfailover drill ok: recovery {payload['recovery_s']}s, "
        f"replay lag {payload['replay_lag_records']} records, "
        f"{payload['slices_adopted']} adopted / {payload['slices_lost']} lost "
        f"in {payload['promotion_journal_records']} journal records"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
