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
  keyed draws made (``default_profile``, ``RandomStreams.draws`` and
  ``RandomStreams.draws_many`` calls: traffic profiles and UE
  populations) and snapshots decoded
  inside the watch cycle that promotes.  The CI gate holds the first at
  1 (the lag's slices, built by that cycle's poll, draw in one batch)
  and the second at 0: the reopened store reads the snapshot LSN off
  the file's head, and the standby's image is the recovery input,
- what the watch cycle that promotes builds, gated exactly at the
  lag's ``BATCH`` slices by the CI gate: ``promotion_slices_built``
  (``NetworkSlice`` constructions), ``promotion_plmn_claims``,
  ``promotion_calendar_windows`` (entries of ``commit_many`` calls) and
  ``promotion_profiles_drawn`` (``VerticalSpec.sample_profile`` calls).
  The standby's ready plane built the four slices acknowledged before
  its first poll then; the promotion builds none of them again,
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
- what re-arming the promoted shard costs, gated exactly by the CI
  gate.  ``standby_for`` arms the successor from the serving leader: a
  copy of its fold, LSN and journal index, and a clone of each live
  request, so building it decodes no request
  (``successor_requests_decoded == 0``; a cold successor would decode
  the fleet) and its first poll decodes no snapshot and folds nothing
  (``successor_snapshot_parses == successor_first_poll_records == 0``;
  the leader checkpointed before the standby first polled, so a cold
  successor would decode one snapshot and fold the records since),
- the promoted shard's first monitoring epoch draws no profile: the
  build drew each adopted slice's (``first_epoch_profiles_drawn``,
  ``VerticalSpec.sample_profile`` calls, and
  ``first_epoch_profile_batches``, ``RandomStreams.draws_many`` calls,
  both held at 0).  It constructs no
  ``numpy.random.SeedSequence`` (``first_epoch_seed_sequences == 0``):
  every id-keyed draw is a counter, and the epoch's shared
  ``demand-noise`` stream is made when the loop starts,
- ``promotion_requests_decoded``: ``request_from_dict`` calls inside
  the promoting watch cycle, the standby's last poll and the
  reconciliation together.  The CI gate holds it at ``BATCH``, the
  requests the standby had not yet folded: it decodes a request as it
  builds its slice,
- ``deposed_plane_garbage``: what ``gc.collect()`` finds after the
  adoption and the successor's ``standby_for``, with the collector
  disabled across both: the adoption keeps the deposed control plane
  (stopped) and the re-arm drops it.  The CI gate holds it at 0:
  nothing in a control plane points back at its owner, so reference
  counting frees it, and the drill fails if it outlives the re-arm,
- ``deposed_planes_freed_in_outage``: deposed planes freed by the
  adoption itself, inside the outage.  The CI gate holds it at 0: the
  new leader serves first, and the plane goes where the slot is reused,
- ``promotion_tracked_objects_per_slice``: GC-tracked objects the
  promotion's bind step leaves alive per slice (its timer is one heap
  tuple and the ``partial`` it holds), replayed on a
  memory-only twin after the drill from a fresh copy of the recorded
  batch, so that only what the bind keeps counts (pinned as a ceiling
  by the CI gate, for the CPython it was measured on),
- ``recovery_split_s``: ``recovery_s`` cut into the bind step and the
  rest (published, never gated),
- ``promotion_ladder``: ``LADDER_REPEATS`` one-shard promotions at
  each of ``LADDER_SIZES`` live slices with the same lag
  (``LAG_CREATES`` creates, ``LAG_RESCALES`` rescales, ``LAG_DELETES``
  deletes), each on its own root, the sizes alternating.  Per size it
  publishes the median and quartiles of ``promotion_ms`` and of
  ``promotion_fsync_ms`` (the wall time of the promotion's fsyncs, the
  lease file and its directory, counted through
  :mod:`repro.store.files`: real fsyncs, whose cost varies with the
  disk far more than the bind's), and per repetition what the outage
  built — ``lag_built`` slices, ``lag_plmn_claims``,
  ``lag_calendar_windows`` and ``lag_profiles_drawn``, each held at the
  lag's creates by the CI gate — and took in place (``lag_in_place``,
  ``LiveFleet.apply_size`` calls, held at its rescales), ``lost``
  (held at 0), and ``promotion_gc_passes``: the collector's passes per
  generation inside the timed promotion, after a ``gc.collect()`` just
  before it (through ``gc.callbacks``), which is where a promotion's
  spread comes from when it is not the disk,
- ``arming_ladder``: ``LADDER_REPEATS`` re-arms (``standby_for`` of a
  promoted one-shard cluster) at each of ``LADDER_SIZES`` live slices,
  the sizes alternating, after a ``gc.collect()``: per size the median
  and quartiles of ``arming_ms``, and per run the slices built and the
  collector passes inside it.  Published, never gated.

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
import statistics
import sys
import tempfile
import time
import weakref

MBPS = 5.0
FIRST_WAVE = 4
BATCH = 16
STALLED = 4
KILLED = 0
LEASE_TIMEOUT_S = 0.05
#: Live fleets the promotion ladder promotes, each with the same lag.
LADDER_SIZES = (40, 400)
#: Promotions (and re-arms) timed per ladder size.
LADDER_REPEATS = 5
#: The ladder's lag: creates (built by the promotion), rescales (taken
#: in place) and deletes, none folded by the standby at the kill.
LAG_CREATES, LAG_RESCALES, LAG_DELETES = 2, 4, 2


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


def _adoption_of(orchestrator, slice_id: str) -> tuple:
    """The build step's input for one of ``orchestrator``'s live slices."""
    network_slice = orchestrator.slice(slice_id)
    return (
        network_slice.request, network_slice.plmn.plmn_id if network_slice.plmn else None,
        orchestrator.runtime(slice_id).effective_fraction, network_slice.admitted_at,
        network_slice.active_at, None,
    )


def _tracked_objects_per_slice(
    testbed, pool_size: int, adoptions: list, slice_ids: list, truth: dict
) -> float:
    """GC-tracked objects one promotion's bind step leaves alive, per
    bound slice: the batch replayed on a memory-only twin control plane
    over the same southbound, outside every timed window, its slices
    built (``adoptions``) before the first count.  Never gated exactly:
    the figure differs between CPython versions.

    ``slice_ids`` and ``truth`` (domain → slice id → reservation, the
    southbound listing) are the recorded bind, alive before and after.
    The twin is handed a fresh copy of the listing, made after the first
    count and dropped before the second, as a promotion hands recovery's
    own: a bind that keeps the maps it is handed and one that copies them
    read the same."""
    import gc

    from repro.core.orchestrator import Orchestrator
    from repro.core.slices import PlmnPool
    from repro.sim.engine import Simulator
    from repro.store.recovery import bind_recovered

    twin = Orchestrator(
        sim=Simulator(), allocator=testbed.allocator, registry=testbed.registry,
        plmn_pool=PlmnPool(size=pool_size),
    )
    twin.build_recovered_slices(adoptions)
    gc.collect()
    before = len(gc.get_objects())
    handed = {domain: dict(held) for domain, held in truth.items()}
    bind_recovered(twin, slice_ids, handed)
    del handed
    gc.collect()
    return round((len(gc.get_objects()) - before) / max(len(slice_ids), 1), 2)


@contextlib.contextmanager
def _ladder_cluster(root: str, live: int):
    """A one-shard cluster of ``live`` ACTIVE slices (the last known
    checkpointed) and the router's request arguments, closed on exit."""
    from repro.cluster import ClusterConfig, ControlPlaneCluster
    from repro.experiments.testbed import TestbedConfig, build_testbed

    cells = 32
    testbed = build_testbed(TestbedConfig(
        n_enbs=cells, max_plmns_per_enb=16, plmn_pool_size=512,
        edge_nodes=cells, core_nodes=2 * cells,
    ))
    cluster = ControlPlaneCluster(
        ClusterConfig(
            shards=1, durability_root=root, plmn_pool_size=512,
            lease_timeout_s=LEASE_TIMEOUT_S, orchestrator={"monitoring_epoch_s": 60.0},
        ),
        testbeds=[testbed],
    )
    try:
        headers = {"x-tenant-id": "tenant-0"}
        body = {
            "service_type": "embb", "throughput_mbps": 2.0, "max_latency_ms": 50.0,
            "duration_s": 360_000.0, "price": 100.0, "penalty_rate": 1.0,
            "tenant_id": "tenant-0",
        }
        created = [
            cluster.router.post("/v1/slices", body=body, headers=headers).body["slice_id"]
            for _ in range(live)
        ]
        cluster.shard(0).run_until(10.0)  # everything ACTIVE
        cluster.shard(0).orchestrator.durable.checkpoint()
        yield cluster, created, body, headers
    finally:
        cluster.close()


@contextlib.contextmanager
def _collector_passes(passes: list):
    """Count in ``passes`` (one slot per generation) the cyclic
    collector's passes while open, through ``gc.callbacks``."""
    import gc

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            passes[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        yield
    finally:
        gc.callbacks.remove(count)


def _ladder_point(root: str, live: int) -> dict:
    """One promotion of a one-shard cluster of ``live`` ACTIVE slices
    whose standby had folded all but the lag (:data:`LAG_CREATES`
    creates, :data:`LAG_RESCALES` rescales, :data:`LAG_DELETES`
    deletes): what the outage builds (slice records, PLMN claims,
    calendar windows, profiles) and takes in place, its wall time, that
    of its fsyncs, and the collector passes that ran inside it (after a
    full collection just before)."""
    import gc

    from repro.core.calendar import ResourceCalendar
    from repro.core.epoch import LiveFleet
    from repro.core.slices import NetworkSlice, PlmnPool
    from repro.store import files
    from repro.traffic.verticals import VerticalSpec

    with _ladder_cluster(root, live) as (cluster, created, body, headers):
        standby = cluster.standby_for(0)
        standby.poll()
        for _ in range(LAG_CREATES):
            cluster.router.post("/v1/slices", body=body, headers=headers)
        for slice_id in created[:LAG_RESCALES]:
            cluster.router.patch(
                f"/v1/slices/{slice_id}", body={"throughput_mbps": 3.0}, headers=headers
            )
        for slice_id in created[LAG_RESCALES:LAG_RESCALES + LAG_DELETES]:
            cluster.router.delete(f"/v1/slices/{slice_id}", headers=headers)
        cluster.kill_leader(0)
        counts: dict = {}
        windows: list = []
        passes = [0, 0, 0]
        with contextlib.ExitStack() as spies:
            for owner, name, key in (
                (NetworkSlice, "__init__", "built"),
                (VerticalSpec, "sample_profile", "profiles"),
                (LiveFleet, "apply_size", "in_place"),
                (PlmnPool, "claim", "claims"),
            ):
                spies.enter_context(_spying(owner, name, counts, key))
            spies.enter_context(
                _spying(ResourceCalendar, "commit_many", counts, "commits", calls=windows)
            )
            spies.enter_context(_spying(files, "fsync", counts, "fsync_s", clock=True))
            gc.collect()
            spies.enter_context(_collector_passes(passes))
            started = time.perf_counter()
            promotion = standby.promote(force=True)
            elapsed = time.perf_counter() - started
        return {
            "adopted": promotion.report.slices_adopted,
            "lost": promotion.report.slices_lost,
            "lag_built": counts["built"],
            "lag_plmn_claims": counts["claims"],
            "lag_calendar_windows": sum(len(call[1]) for call in windows),
            "lag_profiles_drawn": counts["profiles"],
            "lag_in_place": counts["in_place"],
            "promotion_ms": round(elapsed * 1000.0, 3),
            "promotion_fsync_ms": round(counts["fsync_s"] * 1000.0, 3),
            "promotion_gc_passes": passes,
        }


def _arming_point(root: str, live: int) -> dict:
    """One re-arm of a promoted one-shard cluster of ``live`` ACTIVE
    slices: the wall time of ``standby_for`` (the deposed plane dropped,
    the successor's ready plane built from the serving leader), after a
    full collection, and the collector passes inside it."""
    import gc

    with _ladder_cluster(root, live) as (cluster, _, _, _):
        standby = cluster.standby_for(0)
        standby.poll()
        cluster.kill_leader(0)
        cluster.adopt_promotion(0, standby.promote(force=True))
        del standby
        passes = [0, 0, 0]
        gc.collect()
        with _collector_passes(passes):
            started = time.perf_counter()
            successor = cluster.standby_for(0)
            elapsed = time.perf_counter() - started
        return {
            "built": len(successor.plane.fleet.runtimes),
            "arming_ms": round(elapsed * 1000.0, 3),
            "arming_gc_passes": passes,
        }


def _spread(values: list) -> dict:
    """Median and quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def _ladder_runs(point, root: str) -> dict:
    """:data:`LADDER_REPEATS` runs of ``point(root, live)`` at each of
    :data:`LADDER_SIZES` live slices, the sizes alternating, each run on
    its own root."""
    runs: dict = {live: [] for live in LADDER_SIZES}
    for repeat in range(LADDER_REPEATS):
        for live in LADDER_SIZES:
            runs[live].append(point(os.path.join(root, f"fleet-{live}-{repeat}"), live))
    return runs


def run_promotion_ladder(root: str | None = None) -> dict:
    """:data:`LADDER_REPEATS` runs of :func:`_ladder_point` at each of
    :data:`LADDER_SIZES` live slices (:func:`_ladder_runs`); per size the
    runs and the spread of their times."""
    root = root or tempfile.mkdtemp(prefix="promotion-ladder-")
    ladder = {}
    for live, points in _ladder_runs(_ladder_point, root).items():
        promotion_ms = _spread([point["promotion_ms"] for point in points])
        ladder[str(live)] = {
            "live": live,
            "promotion_ms": promotion_ms,
            "promotion_fsync_ms": _spread([point["promotion_fsync_ms"] for point in points]),
            "promotion_ms_per_adopted_slice": round(
                promotion_ms["median"] / max(points[0]["adopted"], 1), 4
            ),
            "runs": points,
        }
    return ladder


def run_arming_ladder(root: str | None = None) -> dict:
    """:data:`LADDER_REPEATS` runs of :func:`_arming_point` at each of
    :data:`LADDER_SIZES` live slices (:func:`_ladder_runs`); per size the
    runs and the spread of ``arming_ms``.  Published, never gated."""
    root = root or tempfile.mkdtemp(prefix="arming-ladder-")
    ladder = {}
    for live, points in _ladder_runs(_arming_point, root).items():
        arming_ms = _spread([point["arming_ms"] for point in points])
        ladder[str(live)] = {
            "live": live,
            "arming_ms": arming_ms,
            "arming_us_per_slice": round(arming_ms["median"] * 1000.0 / max(live, 1), 2),
            "runs": points,
        }
    return ladder


def run_failover_drill(failures: list, root: str | None = None) -> dict:
    """Run the drill; appends invariant violations to ``failures`` and
    returns the artifact payload (always, so a failed drill is still
    diagnosable from the numbers)."""
    import gc

    import numpy as np

    import repro.core.allocation as allocation_module
    import repro.store.recovery as recovery_module
    from repro.cluster import ClusterConfig, ControlPlaneCluster
    from repro.core.calendar import ResourceCalendar
    from repro.core.epoch import LiveFleet
    from repro.core.slices import NetworkSlice, PlmnPool
    from repro.drivers.base import ReservationState
    from repro.ran.controller import RanController
    from repro.sim.randomness import RandomStreams
    from repro.store.codec import ReplayState
    from repro.store.recovery import RecoveryManager
    from repro.store.snapshot import SnapshotStore
    from repro.traffic.patterns import ConstantProfile
    from repro.traffic.verticals import VerticalSpec
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

    def kill() -> None:
        # 3. SIGKILL the leader; 4. the southbound finishes in flight.
        # An event on the southbound clock: the batch's drainer reaches
        # it once the stalled commits are all that is left in flight.
        if firewall.stalled_ops != STALLED:
            failures.append(
                f"drill: {firewall.stalled_ops}/{STALLED} commits stalled at the kill"
            )
        cluster.kill_leader(KILLED)
        firewall.release_stall()

    leader.testbed.registry.clock.schedule(0.0, kill)
    decisions = leader.orchestrator.install_admitted_batch(batch)
    lsn_at_kill = leader.store.last_lsn
    if not leader.dead or not all(d.admitted for d in decisions):
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
    bind_calls: list = []
    window_calls: list = []
    with contextlib.ExitStack() as spies:
        for owner, name, key in (
            (LiveFleet, "default_profile", "profiles"),
            (RandomStreams, "draws", "profiles"),
            (RandomStreams, "draws_many", "profiles"),
            (SnapshotStore, "load_latest", "snapshots"),
            (recovery_module, "request_from_dict", "requests_decoded"),
            (allocation_module, "epc_template", "templates"),
            (SnapshotStore, "write", "serialisations"),
            (ReplayState, "digest", "serialisations"),
            (os, "fsync", "fsyncs"),
            (NetworkSlice, "__init__", "slices_built"),
            (PlmnPool, "claim", "plmn_claims"),
            (VerticalSpec, "sample_profile", "profiles_drawn"),
        ):
            spies.enter_context(_spying(owner, name, counts, key))
        spies.enter_context(_spying(
            ResourceCalendar, "commit_many", counts, "window_commits", calls=window_calls
        ))
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
            _spying(recovery_module, "bind_recovered", stages, "bind", clock=True, calls=bind_calls)
        )
        promotion = standby.tick()
    if promotion is None:
        failures.append("drill: standby never promoted")
        cluster.close()
        return {"promoted": False}
    # The new leader serves first: the adoption keeps the deposed plane,
    # stopped, and the standby that re-arms the shard drops it before it
    # builds its own.  Reference counting frees it there, and the
    # collector, disabled across both, finds nothing.
    deposed = weakref.ref(leader.orchestrator)
    gc.collect()
    gc.disable()
    try:
        cluster.adopt_promotion(KILLED, promotion)
        deposed_planes_freed_in_outage = int(deposed() is None)
        with _spying(recovery_module, "request_from_dict", counts, "successor_requests_decoded"):
            successor = cluster.standby_for(KILLED)
        deposed_plane_garbage = gc.collect()
    finally:
        gc.enable()
    if deposed() is not None:
        failures.append("drill: the deposed plane outlived the successor's standby_for")
    promoted = cluster.shard(KILLED)
    journal_records = promoted.store.last_lsn - lsn_at_kill
    # The successor standby's first poll.
    with _spying(SnapshotStore, "load_latest", counts, "successor_snapshots"):
        successor_records = successor.poll()

    report = promotion.report
    _, bound, truth = bind_calls[0] if bind_calls else (None, [], {})
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
        "promotion_requests_decoded": counts["requests_decoded"],
        "deposed_plane_garbage": deposed_plane_garbage,
        "deposed_planes_freed_in_outage": deposed_planes_freed_in_outage,
        "promotion_snapshot_parses": counts["snapshots"],
        "promotion_template_builds": counts["templates"],
        "promotion_fleet_serialisations": counts["serialisations"],
        "promotion_fsyncs": counts["fsyncs"],
        "promotion_cell_scans": counts["cell_scans"],
        "promotion_calendar_commits": counts["calendar_commits"],
        "promotion_plmn_formats": counts["plmn_formats"],
        "promotion_checked_transitions": counts["checked_transitions"],
        "successor_requests_decoded": counts["successor_requests_decoded"],
        "successor_snapshot_parses": counts["successor_snapshots"],
        "successor_first_poll_records": successor_records,
        "promotion_slices_built": counts["slices_built"],
        "promotion_plmn_claims": counts["plmn_claims"],
        "promotion_calendar_windows": sum(len(call[1]) for call in window_calls),
        "promotion_profiles_drawn": counts["profiles_drawn"],
        "promotion_tracked_objects_per_slice": _tracked_objects_per_slice(
            leader.testbed, promoted.orchestrator.plmn_pool.capacity,
            [_adoption_of(promoted.orchestrator, s) for s in bound], bound, truth,
        ),
        "recovery_split_s": {
            "bind": round(stages["bind"], 4),
            "rest": round(promotion.recovery_s - stages["bind"], 4),
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
    # The promoted shard's first epoch draws no profile: the build did.
    with _spying(np.random, "SeedSequence", payload, "first_epoch_seed_sequences"), \
            _spying(VerticalSpec, "sample_profile", payload, "first_epoch_profiles_drawn"), \
            _spying(RandomStreams, "draws_many", payload, "first_epoch_profile_batches"):
        promoted.run_until(promoted.sim.now + promoted.orchestrator.config.monitoring_epoch_s)
    cluster.close()
    payload["promotion_ladder"] = run_promotion_ladder(os.path.join(root, "ladder"))
    payload["arming_ladder"] = run_arming_ladder(os.path.join(root, "arming"))
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
