"""A standby keeps its plane ready; a promotion binds it.

- **The ready plane is the fold, built** — after any lag of creates,
  deletes, rescales, activations and expiries, a poll leaves the ready
  plane equal to one built from scratch off the standby's fold, and it
  opened, wrote and scheduled nothing to get there.
- **One shard clock** — a promoted plane continues the journal's clock:
  its rebase journals ``shift`` 0 and no journal record time on the
  shard ever decreases, across two promotions in a row.
- **A poll builds again only what the fold changed** — a record that
  moves no image (a ``driver.*`` one) leaves every built slice as it
  is; a rescale is taken in place, on the same runtime; a record that
  moves an image any other way (a ``slice.reconfigured``) rebuilds its
  slice and no other.
- **A poll lists snapshots only when one can be ahead** — after the
  journal was rewritten (a cold standby's first read, a compaction), or
  when a folded ``checkpoint.written`` names an LSN past the fold.
"""

from __future__ import annotations

import os
import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.store.journal import JournalRecord
from repro.store.recovery import build_from_images

from tests.cluster.conftest import build_cluster, slice_body, tenants_per_shard
from tests.cluster.test_promotion import VICTIM, Shard, assert_ready, cold_standby_over

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

LAG_OPS = ("create", "rescale", "delete", "advance")


def plane_image(plane) -> dict:
    """Everything a built, unbound slice of ``plane`` holds, by slice id,
    and the tables it was entered in."""
    slices = {}
    for slice_id, runtime in plane.fleet.runtimes.items():
        network_slice = runtime.network_slice
        booking = plane.calendar.get(network_slice.request.request_id)
        slices[slice_id] = (
            network_slice.request, network_slice.state, network_slice.history,
            network_slice.admitted_at, network_slice.active_at,
            network_slice.plmn, runtime.effective_fraction, type(runtime.profile),
            vars(runtime.profile), (booking.start, booking.end, booking.demand),
        )
    pool = plane.plmn_pool
    return {
        "slices": slices,
        "views": {key: list(ids) for key, ids in plane.slice_index._views.items() if ids},
        "bookings": plane.calendar.bookings(),
        "plmn": (pool._next, sorted(pool._claimed_ahead), dict(pool._released),
                 sorted(pool._allocated.items())),
    }


@settings(
    max_examples=15 * EXAMPLE_MULTIPLIER, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    lag=st.lists(st.sampled_from(LAG_OPS), min_size=1, max_size=24),
    leader_armed=st.booleans(),
)
def test_after_any_lag_the_ready_plane_is_the_fold_built_afresh(seed, lag, leader_armed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as root:
        shard = Shard(root, rng)
        cluster = shard.cluster
        try:
            for _ in range(rng.randrange(2, 8)):
                shard.op()
            if leader_armed:  # a promoted shard re-arms from its serving leader
                standby = cluster.standby_for(VICTIM)
                standby.poll()
                cluster.kill_leader(VICTIM)
                cluster.adopt_promotion(VICTIM, standby.promote(force=True))
            standby = cluster.standby_for(VICTIM)
            standby.poll()
            for kind in lag:
                shard.op_of(kind)
                if rng.random() < 0.4:
                    standby.poll()
            files = sorted(os.listdir(standby.directory))
            sizes = [os.path.getsize(os.path.join(standby.directory, f)) for f in files]
            standby.poll()
            assert sorted(os.listdir(standby.directory)) == files  # the poll wrote nothing
            assert [os.path.getsize(os.path.join(standby.directory, f)) for f in files] == sizes
            assert_ready(standby)

            fresh, _ = cluster_rebuild(cluster)
            build_from_images(fresh, list(standby.state.live.values()))
            assert plane_image(standby.plane) == plane_image(fresh)

            cluster.kill_leader(VICTIM)
            promoted = standby.promote(force=True).orchestrator
            for runtime in promoted.fleet.runtimes.values():
                assert runtime.reservations and runtime.network_slice.allocation is not None
        finally:
            cluster.close()


def cluster_rebuild(cluster):
    """A fresh plane over the victim's southbound and no store."""
    from repro.api.service import SliceService
    from repro.store.store import NullStore

    plane = cluster._build_orchestrator(cluster.shard(VICTIM).testbed, VICTIM, store=NullStore())
    return plane, SliceService(plane)


def test_journal_times_never_decrease_across_two_promotions(tmp_path):
    cluster = build_cluster(tmp_path, shards=1)
    try:
        tenant = tenants_per_shard(cluster)[VICTIM]
        headers = {"x-tenant-id": tenant}
        leader = cluster.shard(VICTIM)
        for round_ in range(3):
            for _ in range(3):
                response = cluster.router.post(
                    "/v1/slices", body=slice_body(tenant, throughput_mbps=2.0), headers=headers
                )
                assert response.status == 201, response.body
            leader.run_until(leader.sim.now + 130.0)
            if round_ == 2:
                break
            standby = cluster.standby_for(VICTIM)
            standby.poll()
            cluster.kill_leader(VICTIM)
            lsn = leader.store.last_lsn
            promotion = standby.promote(force=True)
            # The promoted plane resumed at the fold's time, the last record's.
            assert promotion.orchestrator.sim.now == leader.store.records(lsn - 1)[0].time
            cluster.adopt_promotion(VICTIM, promotion)
        records = leader.store.records()
        rebases = [r for r in records if r.record_type == "recovery.rebased"]
        assert [r.data["shift"] for r in rebases] == [0.0, 0.0]
        times = [r.time for r in records]
        assert times == sorted(times) and rebases[0].time < rebases[1].time < times[-1]
        # Each promoted plane resumed at its crash instant, the fold's time.
        assert [r.time for r in rebases] == [r.data["crash_time"] for r in rebases]
    finally:
        cluster.close()


def test_a_standby_lists_snapshots_only_when_one_can_be_ahead(tmp_path, monkeypatch):
    cluster = build_cluster(tmp_path, shards=1)
    listings = []
    try:
        tenant = tenants_per_shard(cluster)[VICTIM]
        headers = {"x-tenant-id": tenant}
        leader = cluster.shard(VICTIM)

        def create():
            response = cluster.router.post(
                "/v1/slices", body=slice_body(tenant, throughput_mbps=2.0), headers=headers
            )
            assert response.status == 201, response.body

        create()
        standby = cold_standby_over(cluster, str(Path(tmp_path) / "store"))
        real = standby._snapshots.list_lsns  # the standby's own listings, not the leader's
        monkeypatch.setattr(
            standby._snapshots, "list_lsns", lambda: listings.append(1) or real()
        )
        standby.poll()
        assert len(listings) == 1  # a first read: a snapshot could be ahead
        for _ in range(5):  # polls over appends list nothing
            create()
            standby.poll()
        assert len(listings) == 1
        # A checkpoint the standby has folded up to: the compaction
        # rewrote the journal, so the next poll looks once.
        standby.poll()
        leader.orchestrator.durable.checkpoint()
        standby.poll()
        assert len(listings) == 2
        create()
        standby.poll()
        assert len(listings) == 2
        # A checkpoint over records it never folded: it must jump.
        create()
        leader.orchestrator.durable.checkpoint()
        create()
        assert standby.poll() >= 2
        assert len(listings) == 4  # one to see the snapshot ahead, one to load it
        assert standby.state.digest() == leader.orchestrator.store.replay().digest()
        assert_ready(standby)
        # A checkpoint record naming an LSN past the fold looks too, even
        # where the tail saw no rewrite (an inode reused, say).
        listings.clear()
        ahead = JournalRecord(
            lsn=standby.applied_lsn + 1, time=standby.state.time,
            record_type="checkpoint.written", data={"lsn": standby.applied_lsn + 1},
        )
        monkeypatch.setattr(standby._tail, "records", lambda after: [ahead])
        assert standby.poll() == 1 and listings == [1]
    finally:
        cluster.close()



def test_a_poll_builds_again_only_the_slices_whose_image_changed(tmp_path, monkeypatch):
    cluster = build_cluster(tmp_path, shards=1)
    try:
        tenant = tenants_per_shard(cluster)[VICTIM]
        headers = {"x-tenant-id": tenant}
        created = []
        for _ in range(3):
            response = cluster.router.post(
                "/v1/slices", body=slice_body(tenant, throughput_mbps=2.0), headers=headers
            )
            assert response.status == 201, response.body
            created.append(response.body["slice_id"])
        standby = cluster.standby_for(VICTIM)
        standby.poll()
        cluster.shard(VICTIM).run_until(10.0)  # every slice turns ACTIVE: taken in place
        standby.poll()
        runtimes = standby.plane.fleet.runtimes
        built = {slice_id: runtimes[slice_id] for slice_id in created}
        response = cluster.router.patch(
            f"/v1/slices/{created[1]}", body={"throughput_mbps": 4.0}, headers=headers
        )
        assert response.status == 200, response.body
        standby.poll()
        assert all(runtimes[s] is built[s] for s in created)  # taken in place
        assert runtimes[created[1]].network_slice.request.sla.throughput_mbps == 4.0
        assert runtimes[created[1]].profile.peak_mbps == 4.0
        assert standby.state.changed == set()
        assert_ready(standby)
        # A driver record names a live slice and moves no image; a
        # reconfiguration moves one's fraction (both take LSNs the leader
        # never wrote, so they come last).
        injected = [
            JournalRecord(
                lsn=standby.applied_lsn + 1, time=standby.state.time,
                record_type="driver.compensated",
                data={"domain": "ran", "slice_id": created[0], "reservation_id": "r-0"},
            ),
            JournalRecord(
                lsn=standby.applied_lsn + 2, time=standby.state.time,
                record_type="slice.reconfigured",
                data={"slice_id": created[2], "fraction": 0.5},
            ),
        ]
        monkeypatch.setattr(standby._tail, "records", lambda after: injected)
        assert standby.poll() == 2
        assert [runtimes[s] is built[s] for s in created] == [True, True, False]
        assert runtimes[created[2]].effective_fraction == 0.5
        assert standby.state.changed == set()
        assert_ready(standby)
    finally:
        cluster.close()
