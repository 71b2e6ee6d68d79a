"""``GET /v1/slices`` served from the per-shard slice index, against the
merge it replaced.

The oracle below is that merge: every shard filters every slice it
holds, the router sorts the union by ``(slice_id, shard)`` and
serialises the window.  Random ``(tenant?, state?, offset, limit)``
queries through the router must answer the oracle's body byte for byte,
and each shard's own route the oracle restricted to that shard, on
fleets of one and two shards holding every state — also after a
promotion and after a cold restart, whose recovered fleet enters the
index in one batch.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.service import SliceService
from repro.api.v1 import build_v1_api
from repro.store import ControlPlaneStore, RecoveryManager

from tests.cluster.conftest import build_cluster, slice_body, tenants_per_shard

STATES = ("pending", "deploying", "active", "expired", "rejected", "cancelled")
PHASES = ("live", "promoted", "restarted")
EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))


def oracle_body(shards, tenant, state, offset, limit, annotate=True) -> dict:
    """The pre-index page: filter everything, sort the union, cut."""
    merged = []
    for shard in shards:
        for item in shard.orchestrator.snapshot()["slices"]:
            if tenant in (None, item["tenant"]) and state in (None, item["state"]):
                merged.append((item["slice_id"], shard.shard_id, item))
    merged.sort(key=lambda entry: entry[:2])
    window = []
    for _, shard_id, item in merged[offset : offset + limit]:
        if annotate:
            item["shard"] = shard_id
        window.append(item)
    return {
        "slices": window, "count": len(window), "total": len(merged),
        "offset": offset, "limit": limit,
    }


class Fleet:
    """A durable cluster driven through the router into every state."""

    def __init__(self, root, shards: int) -> None:
        self.cluster = build_cluster(root, shards=shards)
        owners = tenants_per_shard(self.cluster)
        # Two tenants on shard 0, one on each other shard.
        extra = next(
            f"tenant-{i}" for i in range(256)
            if self.cluster.ring.shard_for(f"tenant-{i}") == 0 and f"tenant-{i}" != owners[0]
        )
        self.tenants = [*owners.values(), extra]

    def create(self, tenant: str, **overrides) -> dict:
        response = self.cluster.router.post(
            "/v1/slices", body=slice_body(tenant, **{"throughput_mbps": 2.0, **overrides}),
            headers={"x-tenant-id": tenant},
        )
        assert response.status in (201, 409), response.body
        return response.body

    def delete(self, slice_id: str, tenant: str) -> None:
        response = self.cluster.router.delete(
            f"/v1/slices/{slice_id}", headers={"x-tenant-id": tenant}
        )
        assert response.status == 200, response.body

    def advance(self, seconds: float) -> None:
        for worker in self.cluster.shards:
            worker.run_until(worker.sim.now + seconds)

    def populate(self) -> None:
        """Booked, active, expired, rejected, cancelled and deploying slices."""
        router = self.cluster.router
        for tenant in self.tenants:
            booking = router.post(
                "/v1/bookings",
                body=slice_body(tenant, throughput_mbps=2.0, start_time=60.0),
                headers={"x-tenant-id": tenant},
            )
            assert booking.status == 201, booking.body
        created = [
            (self.create(tenant, duration_s=90.0 if i % 3 == 0 else 3_600.0), tenant)
            for i in range(4) for tenant in self.tenants
        ]
        for tenant in self.tenants:  # refused: more than any cell holds
            assert self.create(tenant, throughput_mbps=50_000.0)["admitted"] is False
        self.advance(5.0)
        for body, tenant in created[1::4]:  # active -> expired by DELETE
            self.delete(body["slice_id"], tenant)
        self.advance(100.0)  # the bookings install; the 90 s slices expire
        for tenant in self.tenants:  # deploying -> cancelled
            self.delete(self.create(tenant)["slice_id"], tenant)
            self.create(tenant)  # left deploying

    def promote(self, shard_id: int = 0) -> None:
        standby = self.cluster.standby_for(shard_id)
        self.cluster.kill_leader(shard_id)
        self.cluster.adopt_promotion(shard_id, standby.promote(force=True))

    def restart(self, shard_id: int = 0) -> None:
        """Kill the leader and recover a new process from its directory."""
        cluster = self.cluster
        worker = cluster.kill_leader(shard_id)
        store = ControlPlaneStore(cluster.config.durability_root, shard_id=shard_id)
        orchestrator = cluster._build_orchestrator(worker.testbed, shard_id, store=store)
        worker.service = SliceService(orchestrator)
        RecoveryManager(orchestrator).restore()
        worker.orchestrator, worker.api = orchestrator, build_v1_api(worker.service)
        worker.dead = False
        orchestrator.start()


@pytest.fixture(scope="module", params=[(n, p) for n in (1, 2) for p in PHASES],
                ids=lambda param: f"{param[0]}shard-{param[1]}")
def fleet(request, tmp_path_factory):
    shards, phase = request.param
    built = Fleet(tmp_path_factory.mktemp("fleet"), shards)
    try:
        built.populate()
        if phase != "live":
            built.promote() if phase == "promoted" else built.restart()
            # Writes after the batch-built index: one more of each kind.
            tenant = built.tenants[0]
            built.delete(built.create(tenant)["slice_id"], tenant)
            built.create(tenant, throughput_mbps=50_000.0)
            built.create(tenant)
        yield built
    finally:
        built.cluster.close()


def test_the_fleet_holds_every_listed_state_and_refuses_an_unknown_one(fleet):
    held = {
        item["state"]
        for worker in fleet.cluster.shards
        for item in worker.orchestrator.snapshot()["slices"]
    }
    assert {"deploying", "active", "rejected", "cancelled"} <= held
    for worker in fleet.cluster.shards:
        worker.orchestrator.slice_index.verify()
    for api in (fleet.cluster.router, *(worker.api for worker in fleet.cluster.shards)):
        response = api.get("/v1/slices?state=bogus")
        assert response.status == 400
        assert response.body["error"]["code"] == "invalid_parameter"


@settings(max_examples=60 * EXAMPLE_MULTIPLIER, deadline=None)
@given(data=st.data())
def test_router_pages_equal_the_filter_and_sort_oracle(fleet, data):
    cluster = fleet.cluster
    tenant = data.draw(st.sampled_from([None, *fleet.tenants, "nobody"]), label="tenant")
    state = data.draw(st.sampled_from([None, *STATES]), label="state")
    total = oracle_body(cluster.shards, tenant, state, 0, 1)["total"]
    offset = data.draw(st.integers(0, total + 3), label="offset")
    limit = data.draw(st.integers(1, total + 3), label="limit")
    query = f"offset={offset}&limit={limit}" + (f"&state={state}" if state else "")
    headers = {"x-tenant-id": tenant} if tenant else None
    response = cluster.router.get(f"/v1/slices?{query}", headers=headers)
    assert response.status == 200
    want = oracle_body(cluster.shards, tenant, state, offset, limit)
    assert json.dumps(response.body) == json.dumps(want)
    for worker in cluster.shards:
        response = worker.api.get(f"/v1/slices?{query}", headers=headers)
        want = oracle_body([worker], tenant, state, offset, limit, annotate=False)
        assert json.dumps(response.body) == json.dumps(want)
