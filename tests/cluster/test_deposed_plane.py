"""A deposed control plane is freed by reference counting, where the
shard's slot is reused.

A promotion replaces the shard's control plane, and the new leader
serves first: ``adopt_promotion`` stops the deposed plane and keeps its
last reference, and the plane goes when the slot is reused (the
successor's ``standby_for``, a ``kill_leader``, ``close``).  If anything
in the old plane pointed back at its owner (a pending timer, the epoch's
callback, a slice's fleet, a closure over the orchestrator or the
router), the whole plane would wait for the cyclic collector, and what
waits grows with the fleet.  With the collector disabled from the kill
through the successor's ``standby_for``, ``gc.collect()`` must find the
same count at 40 and at 400 live slices: what the promotion and the
re-arm themselves leave, whatever the fleet.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster import ClusterConfig, ControlPlaneCluster
from repro.core.orchestrator import Orchestrator
from repro.experiments.testbed import TestbedConfig, build_testbed

from tests.cluster.conftest import LEASE_TIMEOUT_S, build_cluster, slice_body, tenants_per_shard

CELLS = 16  # radio and cloud capacity for the 400-slice fleet


def garbage_of_a_deposed_plane(tmp_path, live: int) -> int:
    """What the collector finds once the re-arm drops a plane of ``live`` slices."""
    testbed = build_testbed(
        TestbedConfig(
            n_enbs=CELLS, max_plmns_per_enb=32, plmn_pool_size=512,
            edge_nodes=4 * CELLS, core_nodes=8 * CELLS,
        )
    )
    config = ClusterConfig(
        shards=1, durability_root=str(tmp_path / f"fleet-{live}"), plmn_pool_size=512,
        lease_timeout_s=LEASE_TIMEOUT_S, orchestrator={"monitoring_epoch_s": 60.0},
    )
    cluster = ControlPlaneCluster(config, testbeds=[testbed])
    try:
        tenant = tenants_per_shard(cluster)[0]
        for _ in range(live):
            response = cluster.router.post(
                "/v1/slices", body=slice_body(tenant, throughput_mbps=0.5, duration_s=36_000.0),
                headers={"x-tenant-id": tenant},
            )
            assert response.status == 201, response.body
        # Activations done, epochs run, every expiry timer pending.
        cluster.shard(0).run_until(1_800.0)
        standby = cluster.standby_for(0)
        standby.poll()
        gc.collect()
        gc.disable()
        try:
            cluster.kill_leader(0)
            cluster.adopt_promotion(0, standby.promote(force=True))
            del standby
            cluster.standby_for(0)  # the slot is reused: the deposed plane goes
            found = gc.collect()
        finally:
            gc.enable()
        # The southbound outlives its leader, and holds nothing of it.
        alive = [
            o for o in gc.get_objects()
            if isinstance(o, Orchestrator) and o.registry is testbed.registry
        ]
        assert alive == [cluster.shard(0).orchestrator]
        return found
    finally:
        cluster.close()


def test_a_deposed_control_plane_leaves_the_collector_nothing_that_grows(tmp_path):
    small = garbage_of_a_deposed_plane(tmp_path, 40)
    large = garbage_of_a_deposed_plane(tmp_path, 400)
    assert small == large, f"a dropped plane left {small} objects at 40 slices, {large} at 400"


@pytest.mark.parametrize("release", ["standby_for", "kill_leader", "close"])
def test_the_deposed_plane_is_kept_stopped_until_the_slot_is_reused(tmp_path, release):
    """Past the adoption the deposed plane is alive, stopped and out of
    reach; reusing the shard's slot frees it by reference counting."""
    cluster = build_cluster(tmp_path)
    try:
        tenant = tenants_per_shard(cluster)[0]
        headers = {"x-tenant-id": tenant}
        for _ in range(4):
            assert cluster.router.post(
                "/v1/slices", body=slice_body(tenant), headers=headers
            ).status == 201
        cluster.shard(0).run_until(120.0)  # activations and an epoch: timers pending
        standby = cluster.standby_for(0)
        standby.poll()
        deposed = weakref.ref(cluster.shard(0).orchestrator)
        gc.collect()
        gc.disable()  # whatever frees the plane below, no collector pass does
        try:
            cluster.kill_leader(0)
            cluster.adopt_promotion(0, standby.promote(force=True))
            del standby
            plane = deposed()
            assert plane is not None and plane is not cluster.shard(0).orchestrator
            # Stopped: no timer of it fires, and its journal drops writes.
            assert plane.sim.pending == 0
            events = plane.events.last_seq
            plane.sim.run_until(plane.sim.now + 7_200.0)
            assert plane.events.last_seq == events
            assert plane.store.journal.closed and plane.store.journal.append("probe") == 0
            # The router never reaches it: traffic lands on the new leader.
            created = cluster.router.post("/v1/slices", body=slice_body(tenant), headers=headers)
            assert created.status == 201, created.body
            slice_id = created.body["slice_id"]
            assert cluster.router.get(f"/v1/slices/{slice_id}", headers=headers).status == 200
            assert cluster.router.get("/v1/slices", headers=headers).status == 200
            assert cluster.shard(0).orchestrator.slice(slice_id) is not None
            assert plane.events.last_seq == events
            assert all(worker.orchestrator is not plane for worker in cluster.router.shards)
            del plane
            assert deposed() is not None  # kept past the adoption and the first create
            if release == "standby_for":
                cluster.standby_for(0)
            elif release == "kill_leader":
                cluster.kill_leader(0)
            else:
                cluster.close()
            assert deposed() is None  # freed by reference counting
        finally:
            gc.enable()
    finally:
        cluster.close()
