"""Cross-shard semantics of the :class:`ShardRouter`.

The contracts the sharded v1 surface must keep indistinguishable from
a single shard's:

- merged pagination is duplicate-free, globally ordered, and
  seam-consistent (no item appears on two pages, none falls between),
- the merged durable event feed's vector cursor never replays and
  never skips an event, no matter the page size,
- per-tenant quotas hold across a shard leader's death and promotion,
- tenant-affine calls land on exactly the ring-assigned shard.
"""

from __future__ import annotations

import time

from repro.cluster import VectorCursor
from repro.obs.export import _SAMPLE_RE

from tests.cluster.conftest import (
    LEASE_TIMEOUT_S,
    slice_body,
    tenants_per_shard,
)


def _create(router, tenant, n=1, **overrides):
    ids = []
    for _ in range(n):
        response = router.post(
            "/v1/slices",
            body=slice_body(tenant, **overrides),
            headers={"x-tenant-id": tenant},
        )
        assert response.status == 201, response.body
        ids.append(response.body["slice_id"])
    return ids


class TestTenantAffinity:
    def test_create_lands_on_ring_assigned_shard(self, cluster):
        owners = tenants_per_shard(cluster)
        for shard_id, tenant in owners.items():
            (slice_id,) = _create(cluster.router, tenant)
            shard = cluster.shard(shard_id)
            local = {s.slice_id for s in shard.orchestrator.live_slices()}
            assert slice_id in local
            for other_id, other in enumerate(cluster.shards):
                if other_id != shard_id:
                    foreign = {
                        s.slice_id for s in other.orchestrator.live_slices()
                    }
                    assert slice_id not in foreign

    def test_detail_reads_route_and_scatter(self, cluster):
        owners = tenants_per_shard(cluster)
        created = {
            tenant: _create(cluster.router, tenant)[0]
            for tenant in owners.values()
        }
        for tenant, slice_id in created.items():
            scoped = cluster.router.get(
                f"/v1/slices/{slice_id}", headers={"x-tenant-id": tenant}
            )
            assert scoped.status == 200
            # Unscoped: scatter-gather still finds the one owner.
            unscoped = cluster.router.get(f"/v1/slices/{slice_id}")
            assert unscoped.status == 200
            assert unscoped.body["slice_id"] == slice_id
        assert cluster.router.get("/v1/slices/slice-999999").status == 404


class TestMergedPagination:
    def test_pages_are_duplicate_free_ordered_and_seamless(self, cluster):
        owners = tenants_per_shard(cluster)
        expected = set()
        for tenant in owners.values():
            expected.update(_create(cluster.router, tenant, n=5))

        walked = []
        offset, limit = 0, 3
        while True:
            page = cluster.router.get(
                f"/v1/slices?limit={limit}&offset={offset}"
            ).body
            assert page["total"] == len(expected)
            if not page["slices"]:
                break
            walked.extend(s["slice_id"] for s in page["slices"])
            offset += limit
        # Every slice exactly once, in global order, across page seams.
        assert walked == sorted(walked)
        assert len(walked) == len(set(walked))
        assert set(walked) == expected

    def test_items_carry_their_shard(self, cluster):
        owners = tenants_per_shard(cluster)
        for tenant in owners.values():
            _create(cluster.router, tenant, n=2)
        listing = cluster.router.get("/v1/slices").body
        shards_seen = {s["shard"] for s in listing["slices"]}
        assert shards_seen == set(owners)

    def test_tenant_filter_restricts_to_owner_shard(self, cluster):
        owners = tenants_per_shard(cluster)
        for tenant in owners.values():
            _create(cluster.router, tenant, n=2)
        shard_id, tenant = next(iter(owners.items()))
        page = cluster.router.get(
            "/v1/slices", headers={"x-tenant-id": tenant}
        ).body
        assert page["total"] == 2
        assert {s["shard"] for s in page["slices"]} == {shard_id}


class TestVectorCursor:
    def test_roundtrip_and_scalar_broadcast(self):
        cursor = VectorCursor.parse("0:15,1:7", 2)
        assert cursor.encode() == "0:15,1:7"
        scalar = VectorCursor.parse("42", 3)
        assert scalar.positions == {0: 42, 1: 42, 2: 42}

    def test_malformed_cursors_are_rejected(self, cluster):
        for bad in ("xx:3", "0:-1", "9:3", "0:1,zz", "-5"):
            response = cluster.router.get(f"/v1/events?after_lsn={bad}")
            assert response.status == 400, bad
            assert response.body["error"]["code"] == "invalid_parameter"
        assert cluster.router.get("/v1/events?since=0").status == 400

    def test_drain_never_replays_never_skips(self, cluster):
        owners = tenants_per_shard(cluster)
        for tenant in owners.values():
            _create(cluster.router, tenant, n=4)
        cluster.run_until(120.0)

        # Ground truth: each shard's full durable feed.
        expected = set()
        for shard in cluster.shards:
            feed = shard.service.events_since(
                {"after_lsn": "0", "limit": "1000"}, None
            )
            expected.update((shard.shard_id, e["lsn"]) for e in feed["events"])
        assert expected

        # Walk the merged feed in tiny pages via the vector cursor.
        seen = []
        cursor = "0"
        for _ in range(1000):
            page = cluster.router.get(
                f"/v1/events?after_lsn={cursor}&limit=3"
            ).body
            if not page["events"]:
                break
            seen.extend((e["shard"], e["lsn"]) for e in page["events"])
            cursor = page["next_after_lsn"]
        else:
            raise AssertionError("cursor walk failed to terminate")

        assert len(seen) == len(set(seen)), "cursor replayed an event"
        assert set(seen) == expected, "cursor skipped events"

    def test_page_merge_is_deterministically_ordered(self, cluster):
        owners = tenants_per_shard(cluster)
        for tenant in owners.values():
            _create(cluster.router, tenant, n=3)
        page = cluster.router.get("/v1/events?after_lsn=0&limit=50").body
        keys = [
            (e.get("time", 0.0), e["shard"], e["lsn"]) for e in page["events"]
        ]
        assert keys == sorted(keys)


class TestQuotaAcrossFailover:
    def test_quota_survives_leader_death_and_promotion(self, cluster):
        owners = tenants_per_shard(cluster)
        shard_id, tenant = next(iter(owners.items()))
        shard = cluster.shard(shard_id)
        shard.orchestrator.set_quota(tenant, max_active_slices=2)

        _create(cluster.router, tenant, n=2)
        over = cluster.router.post(
            "/v1/slices",
            body=slice_body(tenant),
            headers={"x-tenant-id": tenant},
        )
        assert over.status == 429
        assert over.body["error"]["code"] == "quota_exceeded"

        # Kill the leader; promote the standby; the ceiling holds.
        standby = cluster.standby_for(shard_id)
        standby.poll()
        cluster.kill_leader(shard_id)
        time.sleep(LEASE_TIMEOUT_S * 3)
        promotion = standby.tick()
        assert promotion is not None
        cluster.adopt_promotion(shard_id, promotion)
        assert promotion.report.slices_lost == 0

        still_over = cluster.router.post(
            "/v1/slices",
            body=slice_body(tenant),
            headers={"x-tenant-id": tenant},
        )
        assert still_over.status == 429, still_over.body
        assert still_over.body["error"]["code"] == "quota_exceeded"


class TestAdminFanout:
    def test_merged_metrics_carry_shard_labels(self, tmp_path):
        from tests.cluster.conftest import build_cluster

        cluster = build_cluster(
            tmp_path,
            orchestrator={"monitoring_epoch_s": 60.0, "observability": True},
        )
        try:
            owners = tenants_per_shard(cluster)
            created = {
                shard_id: _create(cluster.router, tenant)[0]
                for shard_id, tenant in owners.items()
            }
            # One monitoring epoch with an ACTIVE slice on every shard:
            # the sim_* half of the scrape is populated too.
            cluster.run_until(61.0)
            response = cluster.router.get("/v1/admin/metrics")
            assert response.status == 200
            assert response.text is not None
            samples = [
                line
                for line in response.text.splitlines()
                if line and not line.startswith("#")
            ]
            assert samples
            for line in samples:
                match = _SAMPLE_RE.match(line)
                assert match, f"not `name{{labels}} value`: {line!r}"
                assert 'shard="' in match.group("labels"), line
            assert len(samples) == len(set(samples)), "a series emitted twice"
            for shard_id, slice_id in created.items():
                assert any(
                    line.startswith("sim_slice_demand_mbps{")
                    and f'slice="{slice_id}"' in line
                    and f'shard="{shard_id}"' in line
                    for line in samples
                )
            declared = [
                line
                for line in response.text.splitlines()
                if line.startswith("# TYPE")
            ]
            assert len(declared) == len(set(declared)), "duplicate TYPE lines"
        finally:
            cluster.close()

    def test_admin_state_aggregates_across_shards(self, cluster):
        owners = tenants_per_shard(cluster)
        for tenant in owners.values():
            _create(cluster.router, tenant, n=2)
        state = cluster.router.get("/v1/admin/state").body
        assert state["cluster"]["shard_count"] == cluster.config.shards
        assert state["cluster"]["live_slices"] == 2 * len(owners)
        assert set(state["shards"]) == {str(k) for k in owners}

    def test_checkpoint_fans_out(self, cluster):
        owners = tenants_per_shard(cluster)
        for tenant in owners.values():
            _create(cluster.router, tenant)
        response = cluster.router.post("/v1/admin/checkpoint")
        assert response.status == 200
        assert set(response.body["shards"]) == {str(k) for k in owners}


class TestFanoutEnvelopes:
    """The remaining fan-out and tenant-affine routes, through the
    router: merge order, the ``shard`` annotation, per-shard envelopes."""

    def test_bookings_create_list_cancel(self, cluster):
        owners = tenants_per_shard(cluster)
        router = cluster.router
        starts = {0: 2_000.0, 1: 1_000.0}  # shard order != start order
        booked = {}
        for shard_id, tenant in owners.items():
            response = router.post(
                "/v1/bookings",
                body=slice_body(tenant, start_time=starts[shard_id]),
                headers={"x-tenant-id": tenant},
            )
            assert response.status == 201, response.body
            booked[shard_id] = response.body["booking_id"]
            local = cluster.shard(shard_id).service.list_bookings()
            assert [b["booking_id"] for b in local] == [booked[shard_id]]
        listing = router.get("/v1/bookings").body
        assert listing["count"] == 2
        assert [(b["booking_id"], b["shard"]) for b in listing["bookings"]] == [
            (booked[1], 1),
            (booked[0], 0),
        ]
        mine = router.get("/v1/bookings", headers={"x-tenant-id": owners[0]}).body
        assert [b["shard"] for b in mine["bookings"]] == [0]
        # Unscoped cancel scatter-gathers to the owner; scoped routes.
        assert router.delete(f"/v1/bookings/{booked[1]}").status == 200
        scoped = router.delete(
            f"/v1/bookings/{booked[0]}", headers={"x-tenant-id": owners[0]}
        )
        assert scoped.status == 200
        assert router.get("/v1/bookings").body["count"] == 0
        assert router.delete("/v1/bookings/req-999999").status == 404

    def test_operations_merge_by_id_then_shard(self, cluster):
        owners = tenants_per_shard(cluster)
        router = cluster.router
        for shard_id in (1, 0, 1):  # arrival order != merge order
            tenant = owners[shard_id]
            response = router.post(
                "/v1/slices?mode=batch",
                body=slice_body(tenant),
                headers={"x-tenant-id": tenant},
            )
            assert response.status == 202, response.body
        merged = router.get("/v1/operations").body
        keys = [(op["operation_id"], op["shard"]) for op in merged["operations"]]
        assert merged["count"] == 3
        # Operation ids are per-shard sequences: ties break on the shard.
        assert keys == [("op-000001", 0), ("op-000001", 1), ("op-000002", 1)]
        scoped = router.get("/v1/operations", headers={"x-tenant-id": owners[1]})
        assert [op["shard"] for op in scoped.body["operations"]] == [1, 1]

    def test_whatif_answers_from_the_owning_shard(self, cluster):
        owners = tenants_per_shard(cluster)
        _create(cluster.router, owners[0], n=2)  # shard 0 spends two PLMNs
        available = {}
        for shard_id, tenant in owners.items():
            response = cluster.router.post(
                "/v1/whatif", body=slice_body(tenant), headers={"x-tenant-id": tenant}
            )
            assert response.status == 200, response.body
            assert response.body["would_admit"] is True
            available[shard_id] = response.body["plmn_available"]
            pool = cluster.shard(shard_id).orchestrator.plmn_pool
            assert available[shard_id] == pool.available
        assert available[0] == available[1] - 2

    def test_dashboard_and_domain_are_keyed_by_shard(self, cluster):
        owners = tenants_per_shard(cluster)
        _create(cluster.router, owners[1], n=3)
        cluster.run_until(10.0)
        dashboard = cluster.router.get("/v1/dashboard").body["shards"]
        assert {k: v["active"] for k, v in dashboard.items()} == {"0": 0, "1": 3}
        firewall = cluster.router.get("/v1/domains/firewall").body["shards"]
        assert {k: v["active_reservations"] for k, v in firewall.items()} == {
            "0": 0,
            "1": 3,
        }
        unknown = cluster.router.get("/v1/domains/nope")
        assert unknown.status == 404
        assert unknown.body["error"]["code"] == "not_found"

    def test_traces_are_keyed_by_shard(self, tmp_path):
        from tests.cluster.conftest import build_cluster

        cluster = build_cluster(
            tmp_path,
            orchestrator={"monitoring_epoch_s": 60.0, "observability": True},
        )
        try:
            owners = tenants_per_shard(cluster)
            queued = cluster.router.post(
                "/v1/slices?mode=batch",
                body=slice_body(owners[1]),
                headers={"x-tenant-id": owners[1]},
            )
            assert queued.status == 202, queued.body
            cluster.run_until(301.0)  # the broker window flushes: one batch trace
            shards = cluster.router.get("/v1/admin/traces?limit=5").body["shards"]
            assert set(shards) == {"0", "1"}
            assert all(body["enabled"] for body in shards.values())
            assert shards["0"]["count"] == 0
            assert 0 < shards["1"]["count"] <= 5
            bad = cluster.router.get("/v1/admin/traces?limit=nope")
            assert bad.status == 400
        finally:
            cluster.close()

    def test_index_describes_the_sharding(self, cluster):
        index = cluster.router.get("/v1").body
        assert index["version"] == "v1"
        assert index["sharding"]["shard_count"] == cluster.config.shards
        assert index["sharding"]["ring_vnodes"] == cluster.ring.vnodes
        assert "GET /v1/admin/metrics" in index["routes"]
        assert "DELETE /v1/bookings/{booking_id}" in index["routes"]
