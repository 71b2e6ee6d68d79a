"""The batch adoption against the per-slice loop it replaced, and the
three ways a shard recovers against each other.

``PerSliceRecovery`` keeps the reconcile + adopt loop recovery ran
before re-adoption became one batch pass: per slice, decide it against
the southbound, size it (one cell scan each), claim its PLMN, take the
three legality-checked transitions, commit its calendar window (two
bisections), build its runtime, schedule its timer over a partial and
emit its ``slice.adopted`` event.  On Hypothesis fleets — service types,
throughputs, fractions, ACTIVE and DEPLOYING slices, PLMN or none,
window or none, acknowledged or in flight at the crash — both recover
one crashed store on twin orchestrators over one southbound, and all
they can be told apart by must be equal: the durable state and every
journaled byte, the event feed, the sim queue, the PLMN pool, the
calendar's bookings and running totals, and the live-slot table after
the first epoch.

One journal recovered three ways — promoting a ready plane a standby's
polls built, one armed from the serving leader, and a cold restart —
writes the same snapshot bytes and feed and holds the same reservations.
"""

from __future__ import annotations

import copy
import itertools
import os
import random
import shutil
import tempfile
from functools import partial

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.slices as slices_module
from repro.api.service import SliceService
from repro.core.allocation import compose_allocation
from repro.core.epoch import SliceRuntime
from repro.core.slices import NetworkSlice, ServiceType, SliceState, peek_request_counter
from repro.drivers.base import ReservationState
from repro.drivers.mock import MockDriver
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.store import ControlPlaneStore, RecoveryManager
from repro.store.codec import request_from_dict
from repro.traffic.patterns import ConstantProfile

from tests.cluster.test_promotion import VICTIM, Shard, cold_standby_over
from tests.conftest import make_request
from tests.properties.test_plmn_pool_index import hand_out_order
from tests.store.conftest import make_orchestrator, reopen_store
from tests.store.durable_reference import live_state

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))


def adopt_one(orch, request, plmn_id, fraction, reservations, *,
              admitted_at, active_at, window):
    """One slice through the adoption as it was: ``adopt_recovered_slice``
    and its go-live, in their order, on the shard's one clock (the
    journaled window kept, the profile drawn at adoption)."""
    network_slice = NetworkSlice(request)
    slice_id = network_slice.slice_id
    if plmn_id:
        network_slice.plmn = orch.plmn_pool.claim(slice_id, plmn_id)
    size = orch.allocator.size(request, fraction)
    now = orch.sim.now
    network_slice.transition(SliceState.ADMITTED, admitted_at)
    if not orch.calendar.has(request.request_id):
        if window is None:
            window = (admitted_at, admitted_at + request.sla.duration_s + orch.config.deploy_time_s)
        orch.calendar.commit(request.request_id, window[0], window[1], size.demand)
    runtime = SliceRuntime(
        network_slice=network_slice,
        profile=orch.fleet.default_profile(request),
        effective_fraction=size.fraction,
        reservations=reservations,
    )
    epc_reservation = reservations.get("epc")
    if epc_reservation is not None:
        runtime.epc = epc_reservation.details.get("instance")
    network_slice.allocation = compose_allocation(reservations)
    orch.fleet.runtimes[slice_id] = runtime
    orch.fleet.live_slots.touched.add(slice_id)
    network_slice.transition(SliceState.DEPLOYING, admitted_at)
    if active_at is None:
        orch.sim.schedule_at(
            max(admitted_at + orch.config.deploy_time_s, now),
            partial(orch.fleet._activate, slice_id),
        )
    else:
        network_slice.transition(SliceState.ACTIVE, active_at)
        orch.sim.schedule_at(max(network_slice.end_time(), now), partial(orch.fleet.expire, slice_id))
    orch.slice_index.add((network_slice,))
    orch.events.append(
        now, "slice.adopted", slice_id=slice_id, tenant_id=request.tenant_id,
        state=network_slice.state.value,
    )


class PerSliceRecovery(RecoveryManager):
    """Recovery with the per-slice reconcile + adopt loop (the oracle)."""

    def _reconcile_slices(self, state, truth, crash_time, report):
        orch = self.orchestrator
        adopted = set()
        for slice_id, image in list(state.live.items()) + list(state.in_flight.items()):
            request = request_from_dict(image["request"])
            reservations = {}
            for domain, held in truth.items():
                reservation = held.get(slice_id)
                if reservation is None or reservation.state is not ReservationState.COMMITTED:
                    reservations = None
                    break
                reservations[domain] = reservation
            if reservations:
                window = image.get("window")
                adopt_one(
                    orch, request, image.get("plmn"), image.get("fraction", 1.0), reservations,
                    admitted_at=image.get("installed_at", image.get("started_at")),
                    active_at=image["activated_at"] if image.get("status") == "active" else None,
                    window=window,
                )
                adopted.add(slice_id)
            elif slice_id in state.live:
                report.slices_lost += 1
                report.lost_slice_ids.append(slice_id)
        report.slices_adopted = len(adopted)
        adopted_in_flight = {}
        for slice_id, image in state.in_flight.items():
            if slice_id in adopted:
                booking = orch.calendar.get(image["request"]["request_id"])
                adopted_in_flight[slice_id] = {
                    "window": [booking.start, booking.end],
                    "reservations": {
                        domain: held[slice_id].reservation_id for domain, held in truth.items()
                    },
                }
        orch.durable.journal(
            "recovery.rebased", shift=0.0, crash_time=crash_time,
            lost=report.lost_slice_ids, adopted_in_flight=adopted_in_flight,
            last_event_seq=orch.events.last_seq,
        )
        return adopted


#: One slice of a fleet: how it is installed, and how its journal image
#: reads at the crash.
SLICES = st.fixed_dictionaries({
    "service_type": st.sampled_from(list(ServiceType)),
    "mbps": st.sampled_from([2.0, 3.5, 5.0, 8.0]),
    "fraction": st.sampled_from([None, 1.0, 0.8, 0.55]),  # None: as installed
    "deploying": st.booleans(),  # installed just before the crash
    "plmn": st.booleans(),
    "window": st.booleans(),
    "acked": st.booleans(),  # else its install.started is all the journal has
})


def chaos_testbed():
    testbed = build_testbed(TestbedConfig(n_enbs=4, max_plmns_per_enb=12, plmn_pool_size=40))
    testbed.registry.register(MockDriver("firewall", capacity_mbps=100_000.0))
    return testbed


def crashed_fleet(testbed, directory, fleet):
    """Install ``fleet`` on a durable control plane and kill it; returns
    its folded store image with each slice's image edited as drawn."""
    first = make_orchestrator(testbed, directory=directory)
    first.start()
    first.sim.run_until(100.0)
    drawn = {}
    for late in (False, True):
        for spec in fleet:
            if spec["deploying"] is late:
                request = make_request(
                    throughput_mbps=spec["mbps"], duration_s=10_000.0,
                    service_type=spec["service_type"],
                )
                decision = first.submit(request, ConstantProfile(spec["mbps"]))
                if decision.admitted:
                    drawn[decision.slice_id] = spec
        first.sim.run_until(first.sim.now + (1.0 if late else 50.0))
    first.store.close()
    state = reopen_store(directory).replay()
    for slice_id, spec in drawn.items():
        image = state.live[slice_id]
        if spec["fraction"] is not None:
            image["fraction"] = spec["fraction"]
        if not spec["plmn"]:
            image["plmn"] = None
        if not spec["window"]:
            image["window"] = None
        if not spec["acked"]:
            del state.live[slice_id]
            state.in_flight[slice_id] = {
                "request": image["request"], "plmn": image["plmn"],
                "fraction": image["fraction"], "started_at": image["installed_at"],
            }
    return state


def timer_of(callback) -> tuple:
    """A queued callback as its function's name and bound arguments."""
    if isinstance(callback, partial):
        return callback.func.__name__, callback.args
    return callback.__name__, ()


def observed(orch, directory):
    """Everything the two recoveries may be told apart by."""
    pool, calendar = orch.plmn_pool, orch.calendar
    calendar.verify_index()
    return {
        "durable_state": live_state(orch),
        "fold": orch.durable.fold.to_dict(),
        "journal": open(os.path.join(directory, "journal.jsonl"), "rb").read(),
        "feed": [event.to_dict() for event in orch.events.since(0)],
        "queue": sorted(
            (time, priority, seq) + timer_of(callback)
            for time, priority, seq, callback in orch.sim._queue
        ),
        "plmn_available": pool.available,
        "plmn_holders": {s.slice_id: pool._holders.get(s.plmn.plmn_id)
                         for s in orch.live_slices() if s.plmn},
        "plmn_hand_out": hand_out_order(pool),
        "bookings": calendar.bookings(),
        "calendar_index": (calendar._by_start, calendar._by_end, calendar._total),
        "slices": [
            (s.slice_id, s.state, s.history, s.admitted_at, s.active_at, s.plmn)
            for s in orch.live_slices()
        ],
    }


@settings(
    max_examples=20 * EXAMPLE_MULTIPLIER, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fleet=st.lists(SLICES, min_size=1, max_size=8))
def test_the_batch_adoption_equals_the_per_slice_loop(fleet):
    testbed = chaos_testbed()
    root = tempfile.mkdtemp(prefix="adoption-equivalence-")
    try:
        state = crashed_fleet(testbed, os.path.join(root, "crashed"), fleet)
        twins, seen = {}, {}
        for name, manager in (("oracle", PerSliceRecovery), ("batch", RecoveryManager)):
            directory = os.path.join(root, name)
            shutil.copytree(os.path.join(root, "crashed"), directory)
            orch = make_orchestrator(testbed, store=reopen_store(directory))
            report = manager(orch).restore(copy.deepcopy(state))
            orch.start()
            assert report.slices_adopted == len(state.live) + len(state.in_flight)
            twins[name], seen[name] = orch, observed(orch, directory)
        assert seen["batch"] == seen["oracle"]

        # The first epoch serves the same table from the same rows.
        for orch in twins.values():
            orch.sim.run_until(orch.sim.now + orch.config.monitoring_epoch_s)
            orch.fleet.live_slots.verify(orch.fleet)
        oracle, batch = twins["oracle"], twins["batch"]
        assert live_state(batch) == live_state(oracle)
        assert batch.durable.fold.to_dict() == oracle.durable.fold.to_dict()
        assert [
            (r.network_slice.slice_id, r.last_demand_mbps, r.last_delivered_mbps)
            for r in batch.fleet.runtimes.values()
        ] == [
            (r.network_slice.slice_id, r.last_demand_mbps, r.last_delivered_mbps)
            for r in oracle.fleet.runtimes.values()
        ]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def promoted_three_ways(root: str, first_ordinal: int, seed: int, lag: list, way: str):
    """One shard, promoted once so that it re-arms from its serving
    leader, then a standby armed (``armed``: from the leader; ``polled``:
    cold, its ready plane built by a poll) before ``lag``, the leader
    killed, and the shard recovered by that standby's promotion or
    (``cold``) a cold restart.  Every way issues the same request ids
    and draws, so all three journals hold the same records up to the
    kill.  Returns the snapshot the recovered plane checkpoints, its
    event feed and every reservation the drivers hold."""
    slices_module._request_counter = itertools.count(first_ordinal)
    shard = Shard(root, random.Random(seed))
    cluster, store_root = shard.cluster, os.path.join(root, "store")
    try:
        for kind in ("create", "create", "create", "advance", "create"):
            shard.op_of(kind)
        standby = cluster.standby_for(VICTIM)
        standby.poll()
        cluster.kill_leader(VICTIM)
        cluster.adopt_promotion(VICTIM, standby.promote(force=True))
        if way == "armed":
            standby = cluster.standby_for(VICTIM)
        elif way == "polled":
            standby = cold_standby_over(cluster, store_root)
            standby.poll()
        for kind in lag:
            shard.op_of(kind)
        cluster.kill_leader(VICTIM)
        testbed = cluster.shard(VICTIM).testbed
        if way == "cold":
            plane = cluster._build_orchestrator(
                testbed, VICTIM, store=ControlPlaneStore(store_root, shard_id=VICTIM)
            )
            SliceService(plane)
            RecoveryManager(plane).restore()
        else:
            plane = standby.promote(force=True).orchestrator
        lsn = plane.durable.checkpoint()["checkpoint_lsn"]
        with open(plane.store.snapshots._path_for(lsn), "rb") as handle:
            snapshot = handle.read()
        feed = [event.to_dict() for event in plane.events.since(0)]
        held = sorted(
            (driver.domain, r.slice_id, r.reservation_id, r.state.value)
            for driver in testbed.registry.drivers() for r in driver.list_reservations()
        )
        plane.store.close()
        return snapshot, feed, held
    finally:
        cluster.close()


@settings(
    max_examples=8 * EXAMPLE_MULTIPLIER, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    lag=st.lists(st.sampled_from(["create", "rescale", "delete", "advance"]), max_size=12),
)
def test_a_ready_plane_a_leader_armed_one_and_a_cold_restart_recover_alike(seed, lag):
    """Between arming and the kill the leader creates, deletes, rescales
    and activates; the promotion of a ready plane a poll built, of one
    armed from the serving leader, and a cold restart write the same
    snapshot bytes, serve the same feed and leave the same reservations."""
    first_ordinal = peek_request_counter()
    root = tempfile.mkdtemp(prefix="three-ways-")
    try:
        seen = {
            way: promoted_three_ways(os.path.join(root, way), first_ordinal, seed, lag, way)
            for way in ("armed", "polled", "cold")
        }
        assert seen["armed"] == seen["polled"] == seen["cold"]
        assert seen["cold"][2]  # the drivers hold the recovered fleet
    finally:
        shutil.rmtree(root, ignore_errors=True)
