"""The failover drill: SIGKILL a shard leader mid-16-job-batch.

The sharded generalization of the single-store chaos suite, and the
acceptance drill of the cluster subsystem:

1. a warm standby tails shard 0's journal while the leader serves,
2. a 16-job concurrent batch launches with the ``firewall`` chaos
   domain stalling 4 southbound commits mid-flight,
3. the leader is SIGKILLed (journal stops accepting writes, monitoring
   stops, the lease is never heartbeat again) while commits are parked,
4. the southbound finishes the in-flight work,
5. the standby detects the stale lease, promotes itself (epoch-bumped
   lease takeover + RecoveryManager reconciliation over the surviving
   southbound), and the cluster adopts it.

Invariants: **zero lost** COMMITTED slices, **zero leaked**
reservations (``held == Σ COMMITTED`` exactly), the other shard serves
uninterrupted throughout, and the durable event feed resumes across
the promotion without a gap.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cluster.standby import StandbyError
from repro.drivers.base import ReservationState
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.cluster.conftest import LEASE_TIMEOUT_S, slice_body, tenants_per_shard

MBPS = 5.0
FIRST_WAVE = 4
BATCH = 16
STALLED = 4
KILLED = 0  # the shard whose leader dies


def _committed_demand(driver) -> float:
    return sum(
        r.spec.throughput_mbps * r.spec.effective_fraction
        for r in driver.list_reservations()
        if r.state is ReservationState.COMMITTED
    )


def test_leader_sigkill_mid_batch_promotes_standby(cluster):
    router = cluster.router
    owners = tenants_per_shard(cluster)
    victim_tenant = owners[KILLED]
    other_shard = next(k for k in owners if k != KILLED)
    other_tenant = owners[other_shard]
    leader = cluster.shard(KILLED)
    firewall = leader.testbed.registry.get("firewall")

    # --- 1. acknowledged churn + a warm standby tailing the WAL -----------
    for _ in range(FIRST_WAVE):
        response = router.post(
            "/v1/slices",
            body=slice_body(victim_tenant, throughput_mbps=MBPS),
            headers={"x-tenant-id": victim_tenant},
        )
        assert response.status == 201, response.body
    standby = cluster.standby_for(KILLED)
    assert standby.poll() > 0  # warm: the wave is already folded
    # Heartbeat as the leader's monitoring epoch would: a collection
    # pause since the wave must not read as a dead leader.
    assert leader.lease.heartbeat()
    assert standby.leader_alive()
    with pytest.raises(StandbyError):
        standby.promote()  # refuses to split-brain a live leader

    # --- 2. the 16-job batch, 4 commits stalled mid-flight ----------------
    batch = [
        (
            make_request(throughput_mbps=MBPS, tenant=victim_tenant),
            ConstantProfile(MBPS),
        )
        for _ in range(BATCH)
    ]
    firewall.stall(STALLED, kinds=("commit",))
    at_kill = {}

    def kill() -> None:
        # --- 3. SIGKILL the leader ----------------------------------------
        # An event on the southbound clock: the batch's drainer reaches
        # it once the stalled commits are all that is left in flight.
        at_kill["stalled"] = firewall.stalled_ops
        cluster.kill_leader(KILLED)
        at_kill["lsn"] = leader.store.last_lsn
        # --- 4. the southbound finishes what was in flight ----------------
        firewall.release_stall()

    leader.testbed.registry.clock.schedule(0.0, kill)
    batch_decisions = leader.orchestrator.install_admitted_batch(batch)
    assert at_kill["stalled"] == STALLED
    assert leader.dead
    lsn_at_kill = at_kill["lsn"]
    assert all(d.admitted for d in batch_decisions)  # southbound truth

    # The *other* shard serves through the outage.
    response = router.post(
        "/v1/slices",
        body=slice_body(other_tenant),
        headers={"x-tenant-id": other_tenant},
    )
    assert response.status == 201, response.body

    # --- 5. the standby notices and promotes ------------------------------
    time.sleep(LEASE_TIMEOUT_S * 3)  # the heartbeat goes stale
    assert not standby.leader_alive()
    promotion = standby.tick()
    assert promotion is not None
    assert promotion.shard_id == KILLED
    assert promotion.recovery_s > 0.0
    assert promotion.lease.epoch >= 2  # epoch-bumped past the leader's
    cluster.adopt_promotion(KILLED, promotion)

    # Zero lost: the acked wave AND the whole mid-flight batch (the
    # southbound committed all of it) are adopted.
    report = promotion.report
    assert report.slices_lost == 0, report.lost_slice_ids
    assert report.slices_adopted == FIRST_WAVE + BATCH
    promoted = cluster.shard(KILLED)
    live_ids = {s.slice_id for s in promoted.orchestrator.live_slices()}
    assert len(live_ids) == FIRST_WAVE + BATCH

    # Zero leaked: every domain of the shard holds exactly the adopted
    # slices, all COMMITTED; held == Σ COMMITTED exactly.
    for driver in leader.testbed.registry.drivers():
        reservations = driver.list_reservations()
        assert {r.slice_id for r in reservations} == live_ids, driver.domain
        assert all(
            r.state is ReservationState.COMMITTED for r in reservations
        ), driver.domain
    assert firewall.held_mbps == pytest.approx((FIRST_WAVE + BATCH) * MBPS)
    assert firewall.held_mbps == pytest.approx(_committed_demand(firewall))

    # --- the router now serves the promoted shard -------------------------
    listing = router.get(
        "/v1/slices", headers={"x-tenant-id": victim_tenant}
    )
    assert listing.status == 200
    assert listing.body["total"] == FIRST_WAVE + BATCH

    # The durable feed resumes across the promotion without a gap: no
    # checkpoint closed the recovery, so the replay floor is still the
    # last snapshot's (none yet), and a consumer resuming at the cursor
    # it held at the kill sees exactly the history after it — the
    # recovery's completion event included.
    floor = promotion.replay_floor_lsn
    assert floor == 0 <= lsn_at_kill
    cursor = ",".join(
        f"{k}:{lsn_at_kill if k == KILLED else 0}" for k in sorted(owners)
    )
    feed = router.get(f"/v1/events?after_lsn={cursor}&limit=1000")
    assert feed.status == 200, feed.body
    killed_shard_events = [
        e for e in feed.body["events"] if e["shard"] == KILLED
    ]
    assert all(e["lsn"] > lsn_at_kill for e in killed_shard_events)
    assert [e["type"] for e in killed_shard_events] == ["recovery.completed"]
    assert int(feed.body["replay_floor_lsn"][str(KILLED)]) == floor

    # The drill artifact is JSON-safe (the nightly job uploads it).
    json.dumps(promotion.to_dict())


def test_promotion_is_idempotent_and_fences_late_heartbeats(cluster):
    """A paused-but-alive leader is deposed the moment it heartbeats
    after the standby's epoch-bumped takeover (the classic
    false-suspicion case)."""
    owners = tenants_per_shard(cluster)
    leader = cluster.shard(KILLED)
    cluster.router.post(
        "/v1/slices",
        body=slice_body(owners[KILLED]),
        headers={"x-tenant-id": owners[KILLED]},
    )
    standby = cluster.standby_for(KILLED)
    standby.poll()

    # Force-promote over the *paused* (not dead) leader.
    promotion = standby.promote(force=True)
    assert promotion is standby.promote()  # idempotent

    # The old leader's next heartbeat fails and it fences itself:
    # its store closes (crash semantics — writes dropped).
    assert leader.lease.heartbeat() is False
    assert leader.store.journal.closed is False  # not yet fenced...
    leader.orchestrator._monitoring_epoch()  # ...until its next epoch
    assert leader.store.journal.closed is True
    assert leader.orchestrator.lease is None


def test_standby_tails_across_checkpoints_without_rereading(cluster, monkeypatch):
    """The standby parses a snapshot only when its file name says it is
    ahead, reads only the bytes the leader appended since its last
    poll, and still folds exactly what a from-scratch replay folds —
    across a compaction of the journal it is tailing."""
    from repro.store.journal import JournalRecord
    from repro.store.snapshot import SnapshotStore

    owners = tenants_per_shard(cluster)
    leader = cluster.shard(KILLED)
    headers = {"x-tenant-id": owners[KILLED]}

    def create():
        return cluster.router.post(
            "/v1/slices", body=slice_body(owners[KILLED]), headers=headers
        )

    standby = cluster.standby_for(KILLED)
    create()
    assert standby.poll() > 0
    assert standby.lag_records() == 0

    loads, decoded = [], []
    real_load, real_decode = SnapshotStore.load_latest, JournalRecord.from_line.__func__
    monkeypatch.setattr(
        SnapshotStore, "load_latest", lambda self: loads.append(1) or real_load(self)
    )
    monkeypatch.setattr(
        JournalRecord, "from_line",
        classmethod(lambda cls, text: decoded.append(1) or real_decode(cls, text)),
    )
    assert standby.poll() == 0 and standby.poll() == 0
    assert loads == [] and decoded == []  # nothing new: nothing parsed

    before = leader.store.last_lsn
    create()
    appended = leader.store.last_lsn - before
    assert standby.poll() == appended
    assert len(decoded) == appended and loads == []
    create()
    assert standby.lag_records() == leader.store.last_lsn - standby.applied_lsn > 0
    assert standby.poll() > 0 and standby.lag_records() == 0

    leader.orchestrator.durable.checkpoint()  # snapshot at our position: not ahead
    assert standby.poll() > 0 and loads == []
    create()  # unseen records, then covered by a snapshot and compacted away
    leader.orchestrator.durable.checkpoint()
    create()
    assert standby.poll() > 0
    assert len(loads) == 1
    assert standby.poll() == 0 and len(loads) == 1
    assert standby.applied_lsn == leader.store.last_lsn
    assert standby.state.digest() == leader.store.replay().digest()
