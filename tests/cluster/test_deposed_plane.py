"""A deposed control plane is freed by reference counting.

A promotion replaces the shard's control plane.  If anything in the old
one pointed back at its owner (a pending timer, the epoch's callback, a
slice's fleet, a closure over the orchestrator or the router), the whole
plane would wait for the cyclic collector, and what waits grows with the
fleet.  With the collector disabled from the kill to the adoption,
``gc.collect()`` must find the same count at 40 and at 400 live slices:
what the promotion itself leaves, whatever the fleet.
"""

from __future__ import annotations

import gc

from repro.cluster import ClusterConfig, ControlPlaneCluster
from repro.core.orchestrator import Orchestrator
from repro.experiments.testbed import TestbedConfig, build_testbed

from tests.cluster.conftest import LEASE_TIMEOUT_S, slice_body, tenants_per_shard

CELLS = 16  # radio and cloud capacity for the 400-slice fleet


def garbage_of_a_deposed_plane(tmp_path, live: int) -> int:
    """What the collector finds once a promotion drops a plane of ``live`` slices."""
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
