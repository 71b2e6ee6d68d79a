"""Sharded-mode concurrency: parallel install batches on every shard.

The single-store concurrency suite pins conservation inside one
control plane; this one runs concurrent 12-job batches against both
shards *simultaneously*, one thread per shard (each shard has its own
WAL and southbound — nothing is shared but the router) and then
asserts:

- conservation holds exactly in every domain of every shard
  (``held == Σ COMMITTED``),
- no reservation is stranded in a transient state,
- the router's merged view agrees with the sum of per-shard truths.

CI runs this file under the 3x concurrency repeat gate.
"""

from __future__ import annotations

import threading

import pytest

from repro.drivers.base import ReservationState
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.cluster.conftest import tenants_per_shard

MBPS = 5.0
BATCH = 12
STALLED = 3


def _committed_demand(driver) -> float:
    return sum(
        r.spec.throughput_mbps * r.spec.effective_fraction
        for r in driver.list_reservations()
        if r.state is ReservationState.COMMITTED
    )


def test_parallel_batches_conserve_capacity_per_shard(cluster):
    owners = tenants_per_shard(cluster)
    decisions = {k: [] for k in owners}
    threads = []

    def run_batch(shard_id: int, tenant: str) -> None:
        shard = cluster.shard(shard_id)
        batch = [
            (
                make_request(throughput_mbps=MBPS, tenant=tenant),
                ConstantProfile(MBPS),
            )
            for _ in range(BATCH)
        ]
        decisions[shard_id].extend(
            shard.orchestrator.install_admitted_batch(batch)
        )

    for shard_id, tenant in owners.items():
        thread = threading.Thread(
            target=run_batch, args=(shard_id, tenant), daemon=True
        )
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()

    total_live = 0
    for shard_id in owners:
        shard = cluster.shard(shard_id)
        assert all(d.admitted for d in decisions[shard_id])
        live_ids = {s.slice_id for s in shard.orchestrator.live_slices()}
        assert len(live_ids) == BATCH
        total_live += len(live_ids)
        for driver in shard.testbed.registry.drivers():
            reservations = driver.list_reservations()
            assert {r.slice_id for r in reservations} == live_ids, driver.domain
            assert all(
                r.state is ReservationState.COMMITTED for r in reservations
            ), driver.domain
        firewall = shard.testbed.registry.get("firewall")
        assert firewall.held_mbps == pytest.approx(BATCH * MBPS)
        assert firewall.held_mbps == pytest.approx(_committed_demand(firewall))

    merged = cluster.router.get("/v1/slices?limit=500").body
    assert merged["total"] == total_live == BATCH * len(owners)


def test_stalled_commits_on_one_shard_do_not_block_the_other(cluster):
    """Shard isolation under chaos: shard 0's stalled southbound leaves
    shard 1's batch (and the router's path to it) unaffected."""
    owners = tenants_per_shard(cluster)
    stalled_shard = cluster.shard(0)
    firewall = stalled_shard.testbed.registry.get("firewall")
    firewall.stall(STALLED, kinds=("commit",))

    stalled_batch = [
        (
            make_request(throughput_mbps=MBPS, tenant=owners[0]),
            ConstantProfile(MBPS),
        )
        for _ in range(BATCH)
    ]
    stalled_decisions = []
    worker = threading.Thread(
        target=lambda: stalled_decisions.extend(
            stalled_shard.orchestrator.install_admitted_batch(stalled_batch)
        ),
        daemon=True,
    )
    worker.start()

    # While shard 0 is wedged, shard 1 installs its whole batch.
    other = cluster.shard(1)
    other_batch = [
        (
            make_request(throughput_mbps=MBPS, tenant=owners[1]),
            ConstantProfile(MBPS),
        )
        for _ in range(BATCH)
    ]
    other_decisions = other.orchestrator.install_admitted_batch(other_batch)
    assert all(d.admitted for d in other_decisions)
    assert len(other.orchestrator.live_slices()) == BATCH

    # Shard 0 is entered by its draining worker only: this thread posts
    # the release through the shard's door.
    stalled_shard.testbed.registry.post(firewall.release_stall)
    worker.join(timeout=60.0)
    assert not worker.is_alive()
    assert all(d.admitted for d in stalled_decisions)
    assert firewall.held_mbps == pytest.approx(BATCH * MBPS)
