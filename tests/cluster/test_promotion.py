"""A promotion costs the lag, not the fleet.

Five guards on the warm-standby promotion path:

- **Warm ≡ cold** — the image a standby folded record by record while
  the leader wrote (across a leader checkpoint it had to jump, writes
  it never saw, a torn last line) is the image a cold fold of the
  reopened store produces, and a promotion from it ends exactly where a
  cold ``RecoveryManager.restore()`` over a copy of the directory ends:
  the same state, timers and ``recovery.rebased`` record.
- **Flatness** (counts, not clocks; see ``test_request_path_flatness``)
  — the journal LSNs one promotion consumes, the snapshots and journal
  lines it parses (none), the vEPC templates it builds (at most one)
  and the folded images it re-digests (none) do not grow with the live
  fleet.
- **Lag accounting** — ``replayed_records == replay_lag_records ==``
  the writes the standby had not seen at the kill.
- **Profiles drawn ahead** — a promotion draws no adopted slice's
  traffic profile: the ready plane drew each as it built the slice, in
  one batch per poll, and a plane built slice by slice serves the same
  demands and writes the same journal as one built in one batch; it is
  the profile the v1 API drew at creation.
- **Cached checkpoints are exact** — across a random history with a
  promotion in it, every checkpoint (leader's and promoted's) writes the
  bytes of ``json.dumps`` of the leader's fold, which is what the store
  folds to and what the live objects say, and its fragment cache holds
  exactly the live slice ids.
- **The successor is armed from the leader** — the standby that re-arms
  a promoted shard starts from a copy of the serving leader's fold, its
  LSN, a copy (not the leader's own) of its journal index and a clone
  of each live request, decodes no request and no snapshot and folds
  nothing on its first poll, and stays equal to a cold standby and a
  cold fold across a rescale on the leader, later writes, a checkpoint
  that compacts the journal and a torn tail; promoting it or the cold
  standby builds what a cold restore builds.  A promotion decodes its
  lag once.
- **A promotion settles its queue** — an in-flight install the
  southbound could not finish and a booking that fell due during the
  outage, both queued by the rebase, are installed inside ``promote()``,
  and the successor folds to what a cold fold of a copy reads.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import stat
import tempfile
import time
from functools import partial
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.service import SliceService
from repro.cluster import ClusterConfig, ControlPlaneCluster
import repro.core.allocation as allocation_module
import repro.core.slices as slices_module
from repro.core.overbooking import ForecastOverbooking
from repro.core.slices import SliceState, peek_request_counter, slice_id_for
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.sim.randomness import RandomStreams
from repro.store import ControlPlaneStore, RecoveryManager
import repro.cluster.standby as standby_module
import repro.store.codec as codec
import repro.store.recovery as recovery_module
from repro.store.codec import FORMAT_VERSION, ReplayState, json_default
from repro.store.image import DurableImage
from repro.store.journal import JournalRecord
from repro.store.snapshot import SnapshotStore
from repro.store.store import NullStore
from repro.traffic.patterns import ConstantProfile

from tests.cluster.conftest import build_cluster, slice_body, tenants_per_shard
from tests.conftest import make_request
from tests.store.durable_reference import check_durable, check_queue_settled, live_state

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=12 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VICTIM = 0
CELLS = 8  # radio and cloud capacity for the 64-slice fleet
LEASE_TIMEOUT_S = 0.05  # how stale the killed leader's heartbeat must read


class Shard:
    """One durable shard under a random client (the v1 surface only)."""

    def __init__(self, root: str, rng: random.Random, **overrides) -> None:
        self.cluster = build_cluster(Path(root), shards=1, **overrides)
        self.tenant = tenants_per_shard(self.cluster)[VICTIM]
        self.headers = {"x-tenant-id": self.tenant}
        self.rng = rng
        self.live: list = []

    @property
    def leader(self):
        return self.cluster.shard(VICTIM)

    def op(self) -> None:
        self.op_of(self.rng.choice(("create", "create", "rescale", "delete", "book", "advance")))

    def op_of(self, kind: str) -> None:
        router, rng = self.cluster.router, self.rng
        if kind == "book":
            body = slice_body(
                self.tenant,
                throughput_mbps=2.0,
                duration_s=400.0,
                start_time=self.leader.sim.now + rng.choice((30.0, 200.0, 5_000.0)),
            )
            response = router.post("/v1/bookings", body=body, headers=self.headers)
            assert response.status in (201, 409), response.body
        elif kind == "create":
            body = slice_body(
                self.tenant,
                throughput_mbps=rng.choice((2.0, 3.0, 5.0)),
                duration_s=rng.choice((90.0, 400.0, 3_600.0)),
            )
            response = router.post("/v1/slices", body=body, headers=self.headers)
            assert response.status in (201, 409), response.body
            if response.status == 201:  # 409: the shard is full, a refusal
                self.live.append(response.body["slice_id"])
        elif kind == "rescale" and self.live:
            router.patch(
                f"/v1/slices/{rng.choice(self.live)}",
                body={"throughput_mbps": rng.choice((2.0, 4.0, 6.0))},
                headers=self.headers,
            )  # a slice that expired meanwhile answers 4xx: still an op
        elif kind == "delete" and self.live:
            victim = self.live.pop(rng.randrange(len(self.live)))
            router.delete(f"/v1/slices/{victim}", headers=self.headers)
        else:  # activations, monitoring epochs, expiries
            self.leader.run_until(self.leader.sim.now + rng.choice((2.0, 45.0, 130.0)))


def lifecycle_timers(orchestrator) -> list:
    """(due, timer, slice id) of every pending activation / expiry."""
    return sorted(
        (round(time, 6), callback.func.__name__, callback.args)
        for time, _, _, callback in orchestrator.sim._queue
        if isinstance(callback, partial) and callback.func.__name__ in ("_activate", "expire")
    )


def profile_image(orchestrator, slice_id: str) -> tuple:
    """A live slice's traffic profile."""
    profile = orchestrator.runtime(slice_id).profile
    return type(profile), vars(profile)


def fleet_image(orchestrator) -> dict:
    """What recovery rebuilt, as a consumer or the next restart sees it."""
    image = {}
    for network_slice in orchestrator.live_slices():
        booking = orchestrator.calendar.get(network_slice.request.request_id)
        image[network_slice.slice_id] = (
            network_slice.state,
            network_slice.plmn.plmn_id if network_slice.plmn else None,
            (booking.start, booking.end) if booking else None,
            network_slice.request.sla.throughput_mbps,
        )
    return image


@SLOW
@given(seed=st.integers(0, 10_000), steps=st.integers(6, 40))
def test_promotion_from_the_warm_image_equals_a_cold_restore(seed, steps):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as root:
        shard = Shard(root, rng)
        cluster = shard.cluster
        try:
            standby = cluster.standby_for(VICTIM)
            checkpoint_at = rng.randrange(steps)
            for step in range(steps):
                shard.op()
                if step == checkpoint_at:
                    # Unseen writes, then a snapshot that covers them and
                    # compacts them away: the standby has to jump it.
                    shard.op()
                    shard.leader.orchestrator.durable.checkpoint()
                elif rng.random() < 0.3:
                    standby.poll()
            for _ in range(rng.randrange(4)):  # un-shipped at the kill
                shard.op()
            cluster.kill_leader(VICTIM)
            journal = os.path.join(standby.directory, "journal.jsonl")
            if rng.random() < 0.5:
                with open(journal, "a", encoding="utf-8") as handle:
                    handle.write('{"lsn": 999999, "t": 1.0, "type": "slice.ins')
            cold_root = os.path.join(root, "cold")
            shutil.copytree(os.path.join(root, "store"), cold_root)

            lsn_at_kill = shard.leader.store.last_lsn
            handed, real_restore = [], RecoveryManager.restore

            def restore(manager, state=None):
                handed.append(state.digest())  # what the standby folded, before recovery
                return real_restore(manager, state)

            with mock.patch.object(RecoveryManager, "restore", restore):
                promotion = standby.promote(force=True)
            warm = promotion.orchestrator

            cold_store = ControlPlaneStore(cold_root, shard_id=VICTIM)
            assert handed == [cold_store.replay().digest()]
            cold = cluster._build_orchestrator(
                shard.leader.testbed, VICTIM, store=cold_store
            )
            SliceService(cold)  # the broker's checkpoint section, as on the standby
            cold_report = RecoveryManager(cold).restore()

            report = promotion.report
            assert report.slices_lost == cold_report.slices_lost == 0
            assert report.slices_adopted == cold_report.slices_adopted
            assert fleet_image(warm) == fleet_image(cold)
            assert lifecycle_timers(warm) == lifecycle_timers(cold)
            assert live_state(warm) == live_state(cold)
            assert warm.durable.fold.digest() == cold.durable.fold.digest()
            for orchestrator in (warm, cold):  # rows and folds follow the adopted fleet
                orchestrator.fleet.live_slots.verify(orchestrator.fleet)
                check_durable(orchestrator)
            # No checkpoint: past the kill both stores hold the same
            # records (re-promised bookings between them), from
            # recovery.rebased to recovery.completed with its event;
            # only the completion's report of what was folded differs.
            warm_tail, cold_tail = (s.records(lsn_at_kill) for s in (warm.store, cold_store))
            assert warm_tail[:-1] == cold_tail[:-1]
            assert warm_tail[0].record_type == "recovery.rebased"
            for store in (warm.store, cold_store):
                assert store.records()[-1].data["event"]["type"] == "recovery.completed"
            assert warm.store.replay().digest() == cold_store.replay().digest()
            # The ready plane drew each profile the cold restart draws.
            for network_slice in warm.live_slices():
                slice_id = network_slice.slice_id
                assert profile_image(warm, slice_id) == profile_image(cold, slice_id)
            cold_store.close()
        finally:
            cluster.close()


def live_image(orchestrator) -> dict:
    """The running control plane's state in the fold's shape, read off
    its live objects, minus the process-wide request counter."""
    image = live_state(orchestrator)
    image.pop("last_request_ordinal")
    image["broker_pending"] = orchestrator.durable.fold.broker_pending  # no live twin
    return image


def folded_image(store) -> dict:
    """What a restart would fold from ``store`` right now, in the same shape."""
    image = store.replay().to_dict()
    image.pop("last_request_ordinal")
    return image


@SLOW
@given(
    seed=st.integers(0, 10_000),
    promotions=st.integers(1, 3),
    steps=st.integers(3, 16),
)
def test_the_fold_of_a_promotion_chain_is_the_live_state(seed, promotions, steps):
    """Promotions in a row with no checkpoint between them: each one's
    ``recovery.rebased`` is all the fold learns of its re-adoption, yet
    the fold is the live state after every recovery and after the ops
    that follow (on an epoch boundary, where the clock is journaled).
    The last promotion also equals a cold restore of a copy."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as root:
        shard = Shard(root, rng)
        cluster = shard.cluster
        try:
            for promotion_index in range(promotions):
                standby = cluster.standby_for(VICTIM)
                for _ in range(steps):
                    shard.op()
                    if rng.random() < 0.3:
                        standby.poll()
                cluster.kill_leader(VICTIM)
                last = promotion_index == promotions - 1
                if last:
                    cold_root = os.path.join(root, "cold")
                    shutil.copytree(os.path.join(root, "store"), cold_root)
                promotion = standby.promote(force=True)
                cluster.adopt_promotion(VICTIM, promotion)
                promoted = promotion.orchestrator
                assert folded_image(promoted.store) == live_image(promoted)
                if last:
                    break
                for _ in range(rng.randrange(1, 6)):
                    shard.op()
                # The promoted epochs keep the period, from the promotion on.
                promoted.sim.run_until(min(
                    time for time, _, _, callback in promoted.sim._queue
                    if callback == promoted._epoch_tick
                ))
                assert folded_image(promoted.store) == live_image(promoted)
                assert promoted.store.snapshot_lsn == 0  # no checkpoint between them

            cold_store = ControlPlaneStore(cold_root, shard_id=VICTIM)
            cold = cluster._build_orchestrator(shard.leader.testbed, VICTIM, store=cold_store)
            SliceService(cold)
            RecoveryManager(cold).restore()
            assert live_image(cold) == live_image(promoted)
            assert lifecycle_timers(cold) == lifecycle_timers(promoted)
            assert folded_image(cold_store) == folded_image(promoted.store)
            cold_store.close()
        finally:
            cluster.close()


class PromotionProbe:
    """Counts what one promotion parses, draws, sizes and serialises."""

    def __init__(self, monkeypatch) -> None:
        self.snapshots_loaded = 0
        self.lines_decoded = 0
        self.streams_derived = 0
        self.templates_built = 0
        self.states_digested = 0
        self.requests_decoded = 0
        self.fsyncs = []  # "file" or "directory", in order
        real_load = SnapshotStore.load_latest
        real_fsync = os.fsync
        real_decode = JournalRecord.from_line.__func__
        real_draws = RandomStreams.draws
        real_template = allocation_module.epc_template
        real_digest = ReplayState.digest

        def load_latest(store):
            self.snapshots_loaded += 1
            return real_load(store)

        def from_line(cls, text):
            self.lines_decoded += 1
            return real_decode(cls, text)

        def draws(streams, name):
            self.streams_derived += 1
            return real_draws(streams, name)

        def epc_template(slice_id):
            self.templates_built += 1
            return real_template(slice_id)

        def digest(state):
            self.states_digested += 1
            return real_digest(state)

        def fsync(fd):
            self.fsyncs.append("directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            return real_fsync(fd)

        def request_from_dict(payload):
            self.requests_decoded += 1
            return codec.request_from_dict(payload)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(SnapshotStore, "load_latest", load_latest)
        monkeypatch.setattr(allocation_module, "epc_template", epc_template)
        monkeypatch.setattr(ReplayState, "digest", digest)
        monkeypatch.setattr(JournalRecord, "from_line", classmethod(from_line))
        monkeypatch.setattr(RandomStreams, "draws", draws)
        # The standby's builds and the restore's decode through one name.
        monkeypatch.setattr(recovery_module, "request_from_dict", request_from_dict)


def promotion_costs(tmp_path, monkeypatch, live: int) -> dict:
    """One promotion of a caught-up standby over ``live`` slices."""
    testbed = build_testbed(
        TestbedConfig(
            n_enbs=CELLS, max_plmns_per_enb=16, plmn_pool_size=128,
            edge_nodes=CELLS, core_nodes=2 * CELLS,
        )
    )
    config = ClusterConfig(
        shards=1, durability_root=str(tmp_path / f"fleet-{live}"),
        plmn_pool_size=128, lease_timeout_s=LEASE_TIMEOUT_S,
        orchestrator={"monitoring_epoch_s": 60.0},
    )
    cluster = ControlPlaneCluster(config, testbeds=[testbed])
    try:
        tenant = tenants_per_shard(cluster)[VICTIM]
        leader = cluster.shard(VICTIM)
        for _ in range(live):
            response = cluster.router.post(
                "/v1/slices", body=slice_body(tenant, throughput_mbps=2.0),
                headers={"x-tenant-id": tenant},
            )
            assert response.status == 201, response.body
        leader.run_until(10.0)  # everything ACTIVE
        # The leader checkpointed and the standby has seen all of it:
        # the steady state a promotion is sized for.
        leader.orchestrator.durable.checkpoint()
        standby = cluster.standby_for(VICTIM)
        standby.poll()
        cluster.kill_leader(VICTIM)
        lsn_at_kill = leader.store.last_lsn
        time.sleep(LEASE_TIMEOUT_S * 3)  # the heartbeat goes stale
        probe = PromotionProbe(monkeypatch)
        promotion = standby.tick()
        monkeypatch.undo()
        assert promotion is not None
        report = promotion.report
        assert report.slices_adopted == live and report.slices_lost == 0
        assert report.admissions_requeued == report.broker_requeued == 0
        assert len(promotion.orchestrator.live_slices()) == live
        return {
            "journal records": promotion.orchestrator.store.last_lsn - lsn_at_kill,
            "snapshots parsed": probe.snapshots_loaded,
            "journal lines decoded": probe.lines_decoded,
            "profiles drawn": probe.streams_derived,
            "vEPC templates built": probe.templates_built,
            "states digested": probe.states_digested,
            "requests decoded": probe.requests_decoded,
            "fsyncs": probe.fsyncs,
            "allowance": 4 + report.orphans_compensated + report.admissions_requeued,
        }
    finally:
        cluster.close()


def test_promotion_work_does_not_grow_with_live_slices(tmp_path, monkeypatch):
    small = promotion_costs(tmp_path, monkeypatch, 8)
    large = promotion_costs(tmp_path, monkeypatch, 64)
    assert small == large, f"promotion work grew with the fleet: {small} -> {large}"
    # recovery.rebased + the recovery.completed record; once this was
    # >= 3 x adopted (installed, activated, event).
    assert small["journal records"] <= small["allowance"]
    # Reopening the store reads the snapshot LSN off the file's head;
    # the standby's own image is the recovery input, so nothing parses
    # a snapshot.
    assert small["snapshots parsed"] == 0
    # The reopen starts from the standby's index of the journal: what it
    # decodes to repair a torn tail is what lies past it — nothing here.
    assert small["journal lines decoded"] == 0
    # Nothing is requeued, and the ready plane drew every adopted slice's
    # profile before the kill: no generator is derived.
    assert small["profiles drawn"] == 0
    # One vEPC size for the whole adoption, and nothing serialises or
    # re-digests the fleet: the rebase record states the adoption.
    assert small["vEPC templates built"] <= 1
    assert small["states digested"] == 0
    # The standby built each slice as it folded it: the promotion
    # builds only the lag, none here.
    assert small["requests decoded"] == 0
    # The lease file and the directory its epoch bump renamed into; the
    # two records wait for the journal's group commit.
    assert small["fsyncs"] == ["file", "directory"]


SERVICE_TYPES = ("embb", "urllc", "mmtc", "automotive", "ehealth")


def promoted_twin(root: str, first_ordinal: int, poll_each: bool) -> tuple:
    """One shard of twenty slices (four per vertical) promoted at t=130 s,
    one of them rescaled before the first epoch, then five epochs
    served.  The standby polls once before the kill or, with
    ``poll_each``, after every create too, so its ready plane builds
    the fleet in one batch or slice by slice.  Every call issues the
    same request ids from ``first_ordinal`` on (the counter is left past
    them), so twins differ in nothing else."""
    slices_module._request_counter = itertools.count(first_ordinal)
    cluster = build_cluster(Path(root), shards=1)
    try:
        tenant = tenants_per_shard(cluster)[VICTIM]
        headers = {"x-tenant-id": tenant}
        standby = cluster.standby_for(VICTIM)
        streams = standby.plane.streams
        batches, draws_many, draws = [], streams.draws_many, streams.draws
        streams.draws_many = lambda names, count: (
            batches.append(len(names)) or draws_many(names, count)
        )
        streams.draws = lambda name: (
            name.startswith("api-profile-") and batches.append(1)
        ) or draws(name)
        created = []
        for service_type in SERVICE_TYPES * 4:  # a poll of them all draws in one batch
            response = cluster.router.post(
                "/v1/slices",
                body=slice_body(tenant, service_type=service_type, throughput_mbps=4.0),
                headers=headers,
            )
            assert response.status == 201, response.body
            created.append(response.body["slice_id"])
            if poll_each:
                standby.poll()
        cluster.shard(VICTIM).run_until(130.0)
        standby.poll()
        built = list(batches)
        cluster.kill_leader(VICTIM)
        promotion = standby.promote(force=True)
        cluster.adopt_promotion(VICTIM, promotion)
        promoted = promotion.orchestrator
        assert batches == built  # the promotion draws no profile
        rescaled = cluster.router.patch(
            f"/v1/slices/{created[1]}", body={"throughput_mbps": 9.0}, headers=headers
        )
        assert rescaled.status == 200, rescaled.body
        epochs = []
        for _ in range(5):
            promoted.sim.run_until(promoted.sim.now + promoted.config.monitoring_epoch_s)
            runtimes = {slice_id: promoted.runtime(slice_id) for slice_id in created}
            epochs.append(
                {
                    "violations": promoted.fleet.sla_monitor.total_violations,
                    "served": {
                        slice_id: (
                            runtime.last_demand_mbps,
                            runtime.last_delivered_mbps,
                            runtime.network_slice.violation_epochs,
                        )
                        for slice_id, runtime in runtimes.items()
                    },
                }
            )
        assert batches == built  # nor does the rescale or an epoch
        profiles = {slice_id: profile_image(promoted, slice_id) for slice_id in created}
        with open(os.path.join(standby.directory, "journal.jsonl"), "rb") as handle:
            journal = handle.read()
        return epochs, profiles, journal, batches
    finally:
        cluster.close()


def test_a_ready_plane_built_in_one_batch_or_slice_by_slice_serves_the_same(tmp_path):
    """The ready plane draws each slice's profile as it builds it: the
    twenty in one numpy batch when the standby polls once, one by one when
    it polls after every create (each activation is taken in place), and
    none inside the promotion or after; both promoted shards serve the
    same epochs from the same profiles and write the same journal."""
    first_ordinal = peek_request_counter()
    batch = promoted_twin(str(tmp_path / "batch"), first_ordinal, poll_each=False)
    each = promoted_twin(str(tmp_path / "each"), first_ordinal, poll_each=True)
    batch_epochs, batch_profiles, batch_journal, batch_batches = batch
    each_epochs, each_profiles, each_journal, each_batches = each
    assert (batch_batches, each_batches) == ([20], [1] * 20)
    assert batch_epochs == each_epochs
    served = [sample for epoch in batch_epochs for sample in epoch["served"].values()]
    assert all(demand > 0.0 for demand, _, _ in served)
    assert batch_profiles == each_profiles
    assert len({cls for cls, _ in batch_profiles.values()}) == 4  # every profile class
    assert batch_journal == each_journal


def test_an_api_created_slice_keeps_its_traffic_profile_across_a_promotion(cluster):
    """The profile a promotion draws again for an adopted slice is the one
    the v1 API drew at creation: one key, so phase, period, on-fraction
    and level survive the failover for every vertical."""
    tenant = tenants_per_shard(cluster)[VICTIM]
    leader = cluster.shard(VICTIM)
    created = []
    for service_type in SERVICE_TYPES:
        response = cluster.router.post(
            "/v1/slices",
            body=slice_body(tenant, service_type=service_type, throughput_mbps=4.0),
            headers={"x-tenant-id": tenant},
        )
        assert response.status == 201, response.body
        created.append(response.body["slice_id"])
    leader.run_until(10.0)
    before = {slice_id: profile_image(leader.orchestrator, slice_id) for slice_id in created}
    standby = cluster.standby_for(VICTIM)
    standby.poll()
    cluster.kill_leader(VICTIM)
    promoted = standby.promote(force=True).orchestrator
    after = {slice_id: profile_image(promoted, slice_id) for slice_id in created}
    assert after == before
    assert len({cls for cls, _ in before.values()}) == 4  # every profile class


def test_a_promoted_shard_lists_cancels_and_counts_its_bookings(cluster):
    """What the tenant sees again after a failover: the booking it made
    is listed (its start as booked: the shard has one clock), still
    counts against its quota, and can still be cancelled, freeing the
    window."""
    tenant = tenants_per_shard(cluster)[VICTIM]
    headers = {"x-tenant-id": tenant}
    router, leader = cluster.router, cluster.shard(VICTIM)
    leader.orchestrator.set_quota(tenant, max_active_slices=1)
    booked = router.post(
        "/v1/bookings", body=slice_body(tenant, start_time=5_000.0), headers=headers
    )
    assert booked.status == 201, booked.body
    booking_id = booked.body["booking_id"]
    leader.run_until(130.0)  # the t=120 epoch is the last durable instant
    standby = cluster.standby_for(VICTIM)
    standby.poll()
    cluster.kill_leader(VICTIM)
    promotion = standby.promote(force=True)
    cluster.adopt_promotion(VICTIM, promotion)
    promoted = promotion.orchestrator
    assert promoted.sim.now == 120.0 and promoted.calendar.get(booking_id).start == 5_000.0

    listing = router.get("/v1/bookings", headers=headers).body
    assert [(b["booking_id"], b["start"]) for b in listing["bookings"]] == [
        (booking_id, 5_000.0)
    ]
    over = router.post("/v1/slices", body=slice_body(tenant), headers=headers)
    assert over.status == 429, over.body
    assert router.delete(f"/v1/bookings/{booking_id}", headers=headers).status == 200
    assert not promoted.calendar.has(booking_id)
    assert router.get("/v1/bookings").body["count"] == 0
    assert router.post("/v1/slices", body=slice_body(tenant), headers=headers).status == 201


def test_replayed_records_is_the_lag_at_the_kill(cluster):
    tenant = tenants_per_shard(cluster)[VICTIM]
    headers = {"x-tenant-id": tenant}
    leader = cluster.shard(VICTIM)

    def create():
        response = cluster.router.post(
            "/v1/slices", body=slice_body(tenant), headers=headers
        )
        assert response.status == 201, response.body
        return response.body["slice_id"]

    shipped = [create() for _ in range(5)]
    leader.run_until(10.0)
    standby = cluster.standby_for(VICTIM)
    assert standby.poll() > 0 and standby.lag_records() == 0
    seen = leader.store.last_lsn
    create()
    cluster.router.patch(
        f"/v1/slices/{shipped[0]}", body={"throughput_mbps": 4.0}, headers=headers
    )
    cluster.router.delete(f"/v1/slices/{shipped[1]}", headers=headers)
    unshipped = leader.store.last_lsn - seen
    assert unshipped > 0
    cluster.kill_leader(VICTIM)

    promotion = standby.promote(force=True)
    assert promotion.replay_lag_records == unshipped
    assert promotion.report.replayed_records == unshipped
    assert promotion.trace["standby_applied_lsn"] == seen
    # ... and the un-shipped writes took effect in the promoted image.
    promoted = promotion.orchestrator
    assert len(promoted.live_slices()) == 5
    assert promoted.slice(shipped[0]).request.sla.throughput_mbps == 4.0
    kept = [slice_id for slice_id in shipped if slice_id != shipped[1]]
    assert all(promoted.slice(slice_id).state is SliceState.ACTIVE for slice_id in kept)


def test_a_promotion_decodes_its_lag_once(cluster, monkeypatch):
    """``lag_records()`` decodes the records the standby has not folded;
    the promotion's final poll folds those very records, decoding none
    again: the tail serves a read behind its last pull from that pull."""
    tenant = tenants_per_shard(cluster)[VICTIM]
    headers = {"x-tenant-id": tenant}
    standby = cluster.standby_for(VICTIM)
    for _ in range(3):
        assert cluster.router.post(
            "/v1/slices", body=slice_body(tenant), headers=headers
        ).status == 201
    standby.poll()
    seen = cluster.shard(VICTIM).store.last_lsn
    for _ in range(2):
        cluster.router.post("/v1/slices", body=slice_body(tenant), headers=headers)
    cluster.kill_leader(VICTIM)
    decoded = []
    real = JournalRecord.from_line.__func__
    monkeypatch.setattr(
        JournalRecord, "from_line",
        classmethod(lambda cls, text: decoded.append(json.loads(text)["lsn"]) or real(cls, text)),
    )
    lag = standby.lag_records()
    promotion = standby.promote(force=True)
    assert lag == promotion.replay_lag_records == cluster.shard(VICTIM).store.last_lsn - seen > 0
    assert sorted(decoded) == list(range(seen + 1, seen + lag + 1))  # each once


class BusyShard(Shard):
    """:class:`Shard` plus what makes consecutive checkpoints differ:
    epochs that reconfigure (forecast overbooking on a short history), a
    link outage that repairs paths, broker windows, explicit checkpoints
    and auto-checkpoints every 48 records."""

    def __init__(self, root: str, rng: random.Random) -> None:
        super().__init__(root, rng, orchestrator={
            "monitoring_epoch_s": 60.0, "min_history_for_forecast": 3,
            "reconfig_every_epochs": 1, "checkpoint_every_records": 48,
        })
        self.broken = None
        self.overbook()

    def overbook(self) -> None:
        self.leader.orchestrator.overbooking = ForecastOverbooking(0.5)

    def op(self) -> None:
        rng = self.rng
        kind = rng.choice(("client",) * 4 + ("window", "outage", "checkpoint"))
        if kind == "client":
            super().op()
        elif kind == "window":
            response = self.cluster.router.post(
                "/v1/slices?mode=batch",
                body=slice_body(self.tenant, throughput_mbps=rng.choice((2.0, 3.0))),
                headers=self.headers,
            )
            assert response.status == 202, response.body
        elif kind == "outage":
            if self.broken is None:
                self.broken = rng.choice(self.leader.testbed.transport.topology.links())
                self.broken.fail()
            else:
                self.broken.restore()
                self.broken = None
        else:
            self.leader.orchestrator.durable.checkpoint()


@SLOW
@given(seed=st.integers(0, 10_000), steps=st.integers(10, 40))
def test_every_checkpoint_of_a_history_writes_the_reference_bytes(seed, steps):
    rng = random.Random(seed)
    checkpoints = []  # (fragments encoded, live slices) per checkpoint
    real_checkpoint = DurableImage.checkpoint

    def checked(image):
        result = real_checkpoint(image)
        lsn = result["checkpoint_lsn"]
        with open(image.store.snapshots._path_for(lsn), "rb") as handle:
            written = handle.read()
        state = image.fold.to_dict()
        reference = json.dumps(
            {"format": FORMAT_VERSION, "lsn": lsn, "state": state},
            sort_keys=True, default=json_default,
        )
        assert written == reference.encode("utf-8")
        assert set(image.fragments) == set(state["live"])
        assert image.fold.digest() == ReplayState.restore(*image.store.load()).digest()
        checkpoints.append((result["fragments_encoded"], len(state["live"])))
        return result

    with tempfile.TemporaryDirectory() as root, mock.patch.object(
        DurableImage, "checkpoint", checked
    ):
        shard = BusyShard(root, rng)
        cluster = shard.cluster
        try:
            promote_at = rng.randrange(steps)
            for step in range(steps):
                shard.op()
                if step == promote_at:
                    standby = cluster.standby_for(VICTIM)
                    cluster.kill_leader(VICTIM)
                    promotion = standby.promote(force=True)
                    cluster.adopt_promotion(VICTIM, promotion)
                    promoted = promotion.orchestrator
                    shard.overbook()
                    # Known defect 1: adoption opens no ledger account, and
                    # an adopted slice's first violation would raise.
                    for network_slice in promoted.live_slices():
                        if network_slice.slice_id not in promoted.ledger._entries:
                            promoted.ledger.book_admission(
                                network_slice.slice_id, network_slice.request
                            )
                # Every untouched live-slot row and held image is what a
                # re-read gives, and every ACTIVE allocation matches its grid.
                leader = shard.leader.orchestrator
                leader.fleet.live_slots.verify(leader.fleet)
                check_durable(leader)
            shard.leader.run_until(shard.leader.sim.now + 400.0)  # windows flush
            shard.leader.orchestrator.durable.checkpoint()
        finally:
            cluster.close()
    assert checkpoints


def test_a_killed_leader_issues_no_fsync_and_the_standby_replays_all_it_appended(
    cluster, monkeypatch
):
    """A SIGKILL makes nothing power-safe: the kill fsyncs nothing, yet
    every record the dead leader flushed is there for the standby."""
    tenant = tenants_per_shard(cluster)[VICTIM]
    leader = cluster.shard(VICTIM)
    for _ in range(3):
        response = cluster.router.post(
            "/v1/slices", body=slice_body(tenant), headers={"x-tenant-id": tenant}
        )
        assert response.status == 201, response.body
    leader.run_until(10.0)
    standby = cluster.standby_for(VICTIM)  # has seen nothing yet
    appended = leader.store.last_lsn
    assert appended % leader.orchestrator.config.journal_fsync_every  # some unsynced
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    cluster.kill_leader(VICTIM)
    assert fsyncs == []
    monkeypatch.undo()
    promotion = standby.promote(force=True)
    assert promotion.replay_lag_records == promotion.report.replayed_records == appended
    assert len(promotion.orchestrator.live_slices()) == 3


def assert_ready(standby) -> None:
    """The standby's ready plane holds each slice its fold holds live,
    built from its image as journaled and bound to nothing, and nothing
    else; it opened no store, set no timer and emitted no event."""
    plane, live = standby.plane, standby.state.live
    assert not plane.store.enabled and plane.sim.pending == 0 and plane.events.since(0) == []
    assert set(plane.fleet.runtimes) == set(plane.slice_index.records) == set(live)
    plane.slice_index.verify()
    plane.calendar.verify_index()
    for slice_id, image in live.items():
        runtime = plane.runtime(slice_id)
        network_slice = runtime.network_slice
        booking = plane.calendar.get(network_slice.request.request_id)
        assert codec.request_to_dict(network_slice.request) == image["request"]
        assert runtime.reservations == {} and network_slice.allocation is None
        assert (network_slice.plmn.plmn_id if network_slice.plmn else None) == image["plmn"]
        assert runtime.effective_fraction == image["fraction"]
        assert network_slice.admitted_at == image["installed_at"]
        assert network_slice.active_at == image["activated_at"]
        assert [booking.start, booking.end] == image["window"]
        assert runtime.profile is not None


def test_a_standby_builds_a_slice_once_from_install_to_activation(tmp_path, monkeypatch):
    """A standby polling after every record builds each slice, decoding
    its request, at its ``slice.installed`` and never again: an install
    in flight is not built (the southbound decides it at a promotion),
    ``slice.installed`` names the request its ``install.started`` wrote
    by id, and the online create's activation is taken in place."""
    from repro.core.broker import SliceBroker
    from repro.store.store import NullStore
    from tests.store.conftest import make_orchestrator

    testbed = build_testbed(TestbedConfig(n_enbs=2, max_plmns_per_enb=8, plmn_pool_size=16))
    root = str(tmp_path / "store")
    orch = make_orchestrator(testbed, store=ControlPlaneStore(root, shard_id=VICTIM))

    def rebuild():
        plane = make_orchestrator(testbed, store=NullStore())
        return plane, SliceService(plane)

    standby = standby_module.WarmStandby(VICTIM, root, rebuild, lease_timeout_s=60.0)
    decoded = []
    decode = recovery_module.request_from_dict
    monkeypatch.setattr(
        recovery_module, "request_from_dict", lambda p: decoded.append(p) or decode(p)
    )
    append = orch.store.append
    monkeypatch.setattr(orch.store, "append", lambda *a, **k: (append(*a, **k), standby.poll())[0])
    orch.start()
    assert orch.submit(make_request(throughput_mbps=4.0), ConstantProfile(4.0)).admitted
    broker = SliceBroker(orch, window_s=30.0)
    for _ in range(3):
        broker.submit(make_request(throughput_mbps=4.0), ConstantProfile(4.0))
    orch.sim.run_until(31.0)
    assert [d.admitted for d in broker.decisions] == [True, True, True]
    records = orch.store.records()
    installed = [r for r in records if r.record_type == "slice.installed"]
    assert len(installed) == len([r for r in records if r.record_type == "install.started"]) == 4
    assert [r.record_type for r in records].count("slice.activated") == 1  # at t=3
    assert [p["request_id"] for p in decoded] == [
        orch.slice(r.data["slice_id"]).request.request_id for r in installed
    ]
    assert_ready(standby)
    orch.store.close()


def restored_cold(cluster, root: str, cold_root: str):
    """A cold restart's orchestrator over a copy of ``root``'s store."""
    shutil.copytree(os.path.join(root, "store"), cold_root)
    cold_store = ControlPlaneStore(cold_root, shard_id=VICTIM)
    cold = cluster._build_orchestrator(cluster.shard(VICTIM).testbed, VICTIM, store=cold_store)
    SliceService(cold)
    return cold, RecoveryManager(cold).restore()


def cold_standby_over(cluster, store_root: str):
    """A cold standby of the victim shard over ``store_root`` (the
    cluster's own, or a copy), whose promotion rebuilds over it."""
    testbed = cluster.shard(VICTIM).testbed

    def rebuild():
        orchestrator = cluster._build_orchestrator(testbed, VICTIM, store=NullStore())
        return orchestrator, SliceService(orchestrator)

    return standby_module.WarmStandby(VICTIM, store_root, rebuild, LEASE_TIMEOUT_S)


@SLOW
@given(seed=st.integers(0, 10_000), steps=st.integers(3, 16), more=st.integers(0, 16))
def test_a_successor_standby_inherits_the_promoted_fold(seed, steps, more):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as root:
        shard = Shard(root, rng)
        cluster = shard.cluster
        try:
            standby = cluster.standby_for(VICTIM)
            for _ in range(steps):
                shard.op()
                if rng.random() < 0.3:
                    standby.poll()
                    assert_ready(standby)
            cluster.kill_leader(VICTIM)
            promotion = standby.promote(force=True)
            assert not hasattr(promotion, "handoff")
            cluster.adopt_promotion(VICTIM, promotion)
            promoted = promotion.orchestrator
            for _ in range(rng.randrange(3)):  # the promoted leader serves first
                shard.op()

            # Armed from the serving leader: a copy of its fold, its LSN and
            # its journal index, and a ready plane around a clone of each
            # live request.
            decoded = []
            decode = recovery_module.request_from_dict
            with mock.patch.object(
                recovery_module, "request_from_dict", lambda p: decoded.append(p) or decode(p)
            ):
                successor = cluster.standby_for(VICTIM)
            fold = promoted.durable.fold
            assert successor.state is not fold and successor.state.digest() == fold.digest()
            assert successor.applied_lsn == promoted.store.last_lsn
            leader_index = promoted.store.journal._tail
            assert successor._tail is not leader_index
            assert successor._tail.lsns == leader_index.lsns
            assert successor._tail.lsns is not leader_index.lsns
            assert successor._tail.starts is not leader_index.starts
            assert decoded == []
            assert_ready(successor)
            for slice_id in fold.live:
                clone = successor.plane.slice(slice_id).request
                request = promoted.runtime(slice_id).network_slice.request
                assert clone is not request and clone.sla is request.sla
                assert vars(clone) == vars(request)  # every field, none missed
            loads, lines = [], []
            real_load, real_decode = SnapshotStore.load_latest, JournalRecord.from_line.__func__
            with mock.patch.object(
                SnapshotStore, "load_latest", lambda store: loads.append(1) or real_load(store)
            ), mock.patch.object(
                JournalRecord, "from_line",
                classmethod(lambda cls, text: lines.append(1) or real_decode(cls, text)),
            ):
                assert successor.poll() == 0  # no rebase folded again, no snapshot
            assert loads == lines == []

            # A rescale on the leader never reaches the successor's clone;
            # the record that states it is taken in place, on the clone.
            active = [s.slice_id for s in promoted.live_slices() if s.state is SliceState.ACTIVE]
            if active:
                clone = successor.plane.slice(active[0]).request
                before = codec.request_to_dict(clone)
                assert promoted.modify_slice(active[0], clone.sla.throughput_mbps / 2).admitted
                assert codec.request_to_dict(clone) == before
                assert successor.poll() == 1
                request = promoted.runtime(active[0]).network_slice.request
                assert successor.plane.slice(active[0]).request is clone is not request
                assert codec.request_to_dict(clone) == codec.request_to_dict(request)
                assert_ready(successor)

            # A cold standby of the same shard folds to the same image.
            cold_standby = cold_standby_over(cluster, os.path.join(root, "store"))
            assert cold_standby.applied_lsn == -1  # not even a snapshot at LSN 0
            cold_standby.poll()
            assert cold_standby.state.digest() == successor.state.digest()

            checkpoint_at = rng.randrange(more + 1)  # == more: no checkpoint
            for step in range(more):
                shard.op()
                if step == checkpoint_at:
                    shard.op()  # unseen, then compacted away
                    shard.leader.orchestrator.durable.checkpoint()
                elif rng.random() < 0.3:
                    successor.poll()
            cluster.kill_leader(VICTIM)
            if rng.random() < 0.5:
                with open(os.path.join(successor.directory, "journal.jsonl"), "a") as handle:
                    handle.write('{"lsn": 999999, "t": 1.0, "type": "slice.ins')
            cold_store = ControlPlaneStore(os.path.join(root, "store"), shard_id=VICTIM)
            cold_digest = cold_store.replay().digest()
            cold_store.close()
            successor.poll()
            assert successor.state.digest() == cold_digest
            assert_ready(successor)  # across a compaction and a torn tail
            cold_standby.poll()
            assert cold_standby.state.digest() == cold_digest
            assert_ready(cold_standby)

            # Promoting either one builds the same plane, which is what a
            # cold restore builds.
            copy_root = os.path.join(root, "copy")
            shutil.copytree(os.path.join(root, "store"), copy_root)
            cold, cold_report = restored_cold(cluster, root, os.path.join(root, "cold"))
            from_cold = cold_standby_over(cluster, copy_root)
            from_cold.poll()
            again, other = successor.promote(force=True), from_cold.promote(force=True)
            for promoted_again in (again, other):
                warm = promoted_again.orchestrator
                assert promoted_again.report.slices_lost == cold_report.slices_lost == 0
                assert promoted_again.report.slices_adopted == cold_report.slices_adopted
                assert fleet_image(warm) == fleet_image(cold)
                assert lifecycle_timers(warm) == lifecycle_timers(cold)
                assert live_state(warm) == live_state(cold)
                assert warm.durable.fold.digest() == cold.durable.fold.digest()
                assert warm.store.replay().digest() == cold.store.replay().digest()
                warm.store.close()
            cold.store.close()
        finally:
            cluster.close()


def test_a_promotion_installs_what_its_rebase_queued(tmp_path):
    """The leader dies with one install in flight, whose firewall commit
    then fails, as does every other candidate's prepare there (the
    southbound unwinds it: nothing to adopt), and with a booking due at
    the crash instant whose install timer died with it.  The rebase
    queues both; ``promote()`` installs both, and the successor standby,
    starting from the handed-off fold, folds to what a cold fold of a
    copy of the store reads."""
    cluster = build_cluster(tmp_path, shards=1)
    try:
        worker = cluster.shard(VICTIM)
        leader, firewall = worker.orchestrator, worker.testbed.registry.get("firewall")
        standby = cluster.standby_for(VICTIM)
        leader.sim.run_until(70.0)  # the t=60 epoch is durable
        due = make_request(throughput_mbps=2.0, duration_s=600.0)
        assert leader.submit_advance(due, ConstantProfile(2.0), start_time=leader.sim.now).admitted
        standby.poll()

        def kill() -> None:
            cluster.kill_leader(VICTIM)
            firewall.fail_next_commit, firewall.fail_next_prepare = 1, 99
            firewall.release_stall()

        firewall.stall(1, kinds=("commit",))
        worker.testbed.registry.clock.schedule(0.0, kill)
        half_done = make_request(throughput_mbps=2.0)
        (decision,) = leader.install_admitted_batch([(half_done, ConstantProfile(2.0))])
        assert not decision.admitted and worker.dead
        firewall.fail_next_prepare = 0
        for driver in worker.testbed.registry.drivers():
            assert driver.reservation_of(slice_id_for(half_done.request_id)) is None

        promotion = standby.promote(force=True)
        promoted, report = promotion.orchestrator, promotion.report
        assert (report.admissions_requeued, report.bookings_promoted) == (1, 1)
        for request in (half_done, due):
            assert promoted.slice(slice_id_for(request.request_id)).state is SliceState.DEPLOYING
        check_queue_settled(promoted, [half_done.request_id, due.request_id])
        check_durable(promoted)

        cluster.adopt_promotion(VICTIM, promotion)
        successor = cluster.standby_for(VICTIM)
        successor.poll()
        shutil.copytree(tmp_path / "store", tmp_path / "copy")
        cold = ControlPlaneStore(str(tmp_path / "copy"), shard_id=VICTIM)
        assert successor.state.digest() == cold.replay().digest() == promoted.durable.fold.digest()
        cold.close()
    finally:
        cluster.close()
