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
- **Profiles on first use** — a promotion draws no adopted slice's
  traffic profile; the first epoch (or a rescale) does, and a promoted
  shard that draws them all at once serves the same demands and writes
  the same journal; it is the profile the v1 API drew at creation.
- **Cached checkpoints are exact** — across a random history with a
  promotion in it, every checkpoint (leader's and promoted's) writes the
  bytes of ``json.dumps`` of the leader's fold, which is what the store
  folds to and what the live objects say, and its fragment cache holds
  exactly the live slice ids.
- **The successor inherits the fold** — the standby that re-arms a
  promoted shard starts from the promoted fold and a copy (not the
  leader's own) of its journal index, decodes no snapshot and only the
  records journaled since, and stays equal to a cold fold across later
  writes, a checkpoint that compacts the journal and a torn tail; it
  promotes to what a cold restore builds.  The promoted standby keeps
  nothing of what it handed over, and any other standby starts cold.
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
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.service import SliceService
from repro.cluster import ClusterConfig, ControlPlaneCluster
import repro.core.allocation as allocation_module
import repro.core.slices as slices_module
from repro.core.overbooking import ForecastOverbooking
from repro.core.slices import SliceState, peek_request_counter
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.sim.randomness import RandomStreams
from repro.store import ControlPlaneStore, RecoveryManager
import repro.cluster.standby as standby_module
import repro.store.codec as codec
import repro.store.recovery as recovery_module
from repro.store.codec import ReplayState, json_default
from repro.store.image import DurableImage
from repro.store.journal import JournalRecord
from repro.store.snapshot import SnapshotStore

from tests.cluster.conftest import build_cluster, slice_body, tenants_per_shard
from tests.store.durable_reference import check_durable, live_state

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
        router, rng = self.cluster.router, self.rng
        kind = rng.choice(("create", "create", "rescale", "delete", "book", "advance"))
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
    """(due, name) of every pending activation / expiry."""
    return sorted(
        (round(event.time, 6), event.name)
        for event in orchestrator.sim._queue
        if not event.cancelled and event.name.startswith(("activate-", "expire-"))
    )


def profile_image(orchestrator, slice_id: str) -> tuple:
    """A live slice's traffic profile, read (and so drawn) here."""
    profile = orchestrator.fleet.profile(orchestrator.runtime(slice_id))
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
            promotion = standby.promote(force=True)
            warm = promotion.orchestrator

            cold_store = ControlPlaneStore(cold_root, shard_id=VICTIM)
            cold_digest = cold_store.replay().digest()
            folded, _, _ = promotion.handoff
            assert folded.digest() == cold_digest  # untouched by recovery
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
            # Neither drew an adopted slice's profile; both draw the same.
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
                epoch = promoted.config.monitoring_epoch_s
                promoted.sim.run_until((promoted.sim.now // epoch + 1) * epoch)
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
        for decoder in (standby_module, recovery_module):  # the standby's poll, the restore
            monkeypatch.setattr(decoder, "request_from_dict", request_from_dict)


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
    # Nothing is requeued, and an adopted slice's profile waits for its
    # first epoch: no generator is derived.
    assert small["profiles drawn"] == 0
    # One vEPC size for the whole adoption, and nothing serialises or
    # re-digests the fleet: the rebase record states the adoption.
    assert small["vEPC templates built"] <= 1
    assert small["states digested"] == 0
    # The standby decoded each request as it folded it: the promotion
    # decodes only the lag, none here.
    assert small["requests decoded"] == 0
    # The lease file and the directory its epoch bump renamed into; the
    # two records wait for the journal's group commit.
    assert small["fsyncs"] == ["file", "directory"]


SERVICE_TYPES = ("embb", "urllc", "mmtc", "automotive", "ehealth")


def promoted_twin(root: str, first_ordinal: int, draw_all: bool) -> tuple:
    """One shard of ten slices (two per vertical) promoted at t=130 s,
    one of them rescaled before the first epoch, then five epochs
    served.  ``draw_all`` reads every adopted profile right after the
    promotion, as an eager adoption did.  Every call issues the same
    request ids from ``first_ordinal`` on (the counter is left past
    them), so twins differ in nothing else."""
    slices_module._request_counter = itertools.count(first_ordinal)
    cluster = build_cluster(Path(root), shards=1)
    try:
        tenant = tenants_per_shard(cluster)[VICTIM]
        headers = {"x-tenant-id": tenant}
        created = []
        for service_type in SERVICE_TYPES * 2:
            response = cluster.router.post(
                "/v1/slices",
                body=slice_body(tenant, service_type=service_type, throughput_mbps=4.0),
                headers=headers,
            )
            assert response.status == 201, response.body
            created.append(response.body["slice_id"])
        cluster.shard(VICTIM).run_until(130.0)
        standby = cluster.standby_for(VICTIM)
        standby.poll()
        cluster.kill_leader(VICTIM)
        promotion = standby.promote(force=True)
        cluster.adopt_promotion(VICTIM, promotion)
        promoted = promotion.orchestrator
        if draw_all:
            for slice_id in created:
                promoted.fleet.profile(promoted.runtime(slice_id))
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
        profiles = {slice_id: profile_image(promoted, slice_id) for slice_id in created}
        with open(os.path.join(standby.directory, "journal.jsonl"), "rb") as handle:
            journal = handle.read()
        return epochs, profiles, journal
    finally:
        cluster.close()


def test_profiles_drawn_on_first_use_serve_what_eager_ones_did(tmp_path):
    first_ordinal = peek_request_counter()
    lazy = promoted_twin(str(tmp_path / "lazy"), first_ordinal, draw_all=False)
    eager = promoted_twin(str(tmp_path / "eager"), first_ordinal, draw_all=True)
    lazy_epochs, lazy_profiles, lazy_journal = lazy
    eager_epochs, eager_profiles, eager_journal = eager
    assert lazy_epochs == eager_epochs
    served = [sample for epoch in lazy_epochs for sample in epoch["served"].values()]
    assert all(demand > 0.0 for demand, _, _ in served)
    assert lazy_profiles == eager_profiles
    assert len({cls for cls, _ in lazy_profiles.values()}) == 4  # every profile class
    assert lazy_journal == eager_journal


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
    is listed (start rebased onto the new clock), still counts against
    its quota, and can still be cancelled, freeing the window."""
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
    assert promoted.calendar.get(booking_id).start == 4_880.0

    listing = router.get("/v1/bookings", headers=headers).body
    assert [(b["booking_id"], b["start"]) for b in listing["bookings"]] == [
        (booking_id, 4_880.0)
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
    assert all(s.state is SliceState.ACTIVE for s in promoted.live_slices()[:4])


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
        reference = json.dumps({"lsn": lsn, "state": state}, sort_keys=True, default=json_default)
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


def assert_decoded_ahead(standby) -> None:
    """The standby holds each live and in-flight slice's request decoded,
    from the very dict its image holds, and nothing else."""
    images = {**standby.state.in_flight, **standby.state.live}
    assert set(standby.requests) == set(images)
    for slice_id, (payload, request) in standby.requests.items():
        assert payload is images[slice_id]["request"]
        assert request == codec.request_from_dict(payload)


def restored_cold(cluster, root: str, cold_root: str):
    """A cold restart's orchestrator over a copy of ``root``'s store."""
    shutil.copytree(os.path.join(root, "store"), cold_root)
    cold_store = ControlPlaneStore(cold_root, shard_id=VICTIM)
    cold = cluster._build_orchestrator(cluster.shard(VICTIM).testbed, VICTIM, store=cold_store)
    SliceService(cold)
    return cold, RecoveryManager(cold).restore()


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
            assert_decoded_ahead(standby)
            cluster.kill_leader(VICTIM)
            promotion = standby.promote(force=True)
            folded, applied_lsn, index = promotion.handoff
            handed_over = folded.digest()
            cluster.adopt_promotion(VICTIM, promotion)
            assert promotion.handoff is None  # kept by the cluster, for one use
            promoted = promotion.orchestrator
            leader_index = promoted.store.journal._tail
            assert index is not leader_index
            assert index.lsns is not leader_index.lsns
            assert index.starts is not leader_index.starts

            # The promoted standby gave the image up: it folds elsewhere now.
            standby.poll()
            assert standby.state is not folded and folded.digest() == handed_over

            successor = cluster.standby_for(VICTIM)
            assert successor.state is folded and successor.applied_lsn == applied_lsn
            loads, decoded = [], []
            real_load, real_decode = SnapshotStore.load_latest, JournalRecord.from_line.__func__
            with mock.patch.object(
                SnapshotStore, "load_latest", lambda store: loads.append(1) or real_load(store)
            ), mock.patch.object(
                JournalRecord, "from_line",
                classmethod(lambda cls, text: decoded.append(1) or real_decode(cls, text)),
            ):
                first_poll = successor.poll()
            # The rebase, the completion record and what followed: no snapshot.
            # (LSNs start at 1: a leader that journaled nothing hands over -1.)
            assert first_poll == len(decoded) == promoted.store.last_lsn - max(applied_lsn, 0) >= 2
            assert loads == []
            assert_decoded_ahead(successor)  # across the rebase

            # Any other standby for the shard starts cold.
            cold_standby = cluster.standby_for(VICTIM)
            assert cold_standby.applied_lsn == -1  # not even a snapshot at LSN 0
            assert cold_standby.state.digest() == ReplayState().digest()

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
            assert_decoded_ahead(successor)  # across a compaction and a torn tail
            cold_standby.poll()
            assert cold_standby.state.digest() == cold_digest
            assert_decoded_ahead(cold_standby)

            # Promoting the successor ends where a cold restore ends.
            cold, cold_report = restored_cold(cluster, root, os.path.join(root, "cold"))
            again = successor.promote(force=True)
            warm = again.orchestrator
            assert again.report.slices_lost == cold_report.slices_lost == 0
            assert again.report.slices_adopted == cold_report.slices_adopted
            assert fleet_image(warm) == fleet_image(cold)
            assert lifecycle_timers(warm) == lifecycle_timers(cold)
            assert live_state(warm) == live_state(cold)
            assert warm.durable.fold.digest() == cold.durable.fold.digest()
            assert warm.store.replay().digest() == cold.store.replay().digest()
            cold.store.close()
        finally:
            cluster.close()
