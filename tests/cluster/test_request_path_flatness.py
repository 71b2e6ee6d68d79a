"""Deterministic flatness guard for the request path (counts, not clocks).

A create, an event poll and a slice-list page must cost the same amount
of per-request work whether the control plane holds 100 live slices or
1 000.  Each count below stands for one loop that used to run over the
whole fleet or the whole journal:

- ``ResourceVector`` constructions inside ``ResourceCalendar.fits``
  (the calendar re-summed every booking),
- sort-key evaluations inside ``OpenFlowSwitch.install`` (the table was
  re-sorted through a Python key function),
- journal lines decoded by a steady-state ``GET /v1/events`` poll (the
  journal was re-read from its start),
- ``NetworkSlice.to_dict`` calls behind ``GET /v1/slices?limit=20``
  (every matching slice was serialised before the page was cut),
- ``NetworkSlice.state`` reads behind a ``?state=active`` page from the
  middle of the fleet, and behind a tenant-scoped one (every shard
  filtered every slice it ever held, and the router sorted the union).

The counts are taken through the router over two durable shards, on
the real create path; they are exact, so the suite stays deterministic.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from repro.cluster import ClusterConfig, ControlPlaneCluster
from repro.core.admission import ResourceVector
from repro.core.calendar import ResourceCalendar
from repro.core.slices import NetworkSlice
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.store.journal import JournalRecord
from repro.transport.switch import FlowMatch, OpenFlowSwitch

from tests.cluster.conftest import slice_body, tenants_per_shard

SHARDS = 2
CELLS = 44  # per shard; radio capacity for 500+ small slices
SMALL, LARGE = 100, 1_000


def build_fleet(tmp_path) -> ControlPlaneCluster:
    pool = CELLS * 16
    testbeds = [
        build_testbed(
            TestbedConfig(
                n_enbs=CELLS, max_plmns_per_enb=16, plmn_pool_size=pool,
                edge_nodes=CELLS, core_nodes=2 * CELLS,
            )
        )
        for _ in range(SHARDS)
    ]
    config = ClusterConfig(
        shards=SHARDS, durability_root=str(tmp_path / "store"), plmn_pool_size=pool
    )
    return ControlPlaneCluster(config, testbeds=testbeds)


class Probe:
    """Counts the per-request work named in the module docstring."""

    def __init__(self, monkeypatch) -> None:
        self.counts: Counter = Counter()
        self._inside: Counter = Counter()
        counts, inside = self.counts, self._inside

        def counted(owner, name, key, within=None):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if within is None or inside[within]:
                    counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        def scoped(owner, name, scope):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                inside[scope] += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    inside[scope] -= 1

            monkeypatch.setattr(owner, name, wrapper)

        scoped(ResourceCalendar, "fits", "fits")
        counted(ResourceCalendar, "fits", "fits_calls")
        counted(ResourceVector, "__post_init__", "vectors_in_fits", within="fits")
        scoped(OpenFlowSwitch, "install", "install")
        counted(OpenFlowSwitch, "install", "install_calls")
        real_specificity = FlowMatch.specificity.fget

        def specificity(match):
            if inside["install"]:
                counts["keys_in_install"] += 1
            return real_specificity(match)

        monkeypatch.setattr(FlowMatch, "specificity", property(specificity))
        real_decode = JournalRecord.from_line.__func__

        def from_line(cls, text):
            counts["lines_decoded"] += 1
            return real_decode(cls, text)

        monkeypatch.setattr(JournalRecord, "from_line", classmethod(from_line))
        counted(NetworkSlice, "to_dict", "to_dict")

        def read_state(network_slice):
            counts["state_reads"] += 1
            return network_slice.__dict__["state"]

        def write_state(network_slice, value):
            network_slice.__dict__["state"] = value

        monkeypatch.setattr(
            NetworkSlice, "state", property(read_state, write_state), raising=False
        )

    @contextmanager
    def measuring(self):
        """The counts of the requests sent inside the block."""
        self.counts.clear()
        taken: Counter = Counter()
        yield taken
        taken.update(self.counts)


def feed_head(router) -> str:
    """The vector cursor of a consumer that has read everything."""
    cursor = "0"
    while True:
        body = router.get(f"/v1/events?after_lsn={cursor}&limit=1000").body
        cursor = body["next_after_lsn"]
        if not body["events"]:
            return cursor


def measure(cluster: ControlPlaneCluster, probe: Probe, tenants) -> dict:
    """Per-request counts at the fleet's current size."""
    router = cluster.router
    cursor = feed_head(router)
    with probe.measuring() as create:
        for tenant in tenants:
            response = router.post(
                "/v1/slices", body=slice_body(tenant, throughput_mbps=2.0),
                headers={"x-tenant-id": tenant},
            )
            assert response.status == 201, response.body
    with probe.measuring() as poll:
        feed = router.get(f"/v1/events?after_lsn={cursor}&limit=1000")
        assert feed.status == 200 and feed.body["events"]
    with probe.measuring() as idle_poll:
        again = router.get(f"/v1/events?after_lsn={feed.body['next_after_lsn']}")
        assert again.body["events"] == []
    total = router.get("/v1/slices?limit=1").body["total"]
    with probe.measuring() as page:
        listing = router.get(f"/v1/slices?offset={total // 2}&limit=20")
        assert listing.body["count"] == 20 and listing.body["total"] == total
    active = router.get("/v1/slices?state=active&limit=1").body["total"]
    with probe.measuring() as active_page:
        listing = router.get(f"/v1/slices?state=active&offset={active // 2}&limit=20")
        assert listing.body["count"] == 20 and listing.body["total"] == active
    owned = router.get("/v1/slices?limit=1", headers={"x-tenant-id": tenants[0]})
    middle = owned.body["total"] // 2
    with probe.measuring() as tenant_page:
        listing = router.get(
            f"/v1/slices?state=active&offset={middle}&limit=20",
            headers={"x-tenant-id": tenants[0]},
        )
        assert listing.body["count"] == 20
    assert create["fits_calls"] == len(tenants)
    assert create["install_calls"] >= len(tenants)
    return {
        "vectors per fits": create["vectors_in_fits"] / create["fits_calls"],
        "keys per install": create["keys_in_install"] / create["install_calls"],
        "lines decoded per poll": poll["lines_decoded"],
        "lines decoded per idle poll": idle_poll["lines_decoded"],
        "to_dict per page of 20": page["to_dict"],
        "state reads per active page": active_page["state_reads"],
        "state reads per tenant page": tenant_page["state_reads"],
    }


def test_request_path_work_does_not_grow_with_live_slices(tmp_path, monkeypatch):
    cluster = build_fleet(tmp_path)
    try:
        tenants = list(tenants_per_shard(cluster).values())
        router = cluster.router

        def grow_to(live: int) -> None:
            have = router.get("/v1/slices?limit=1").body["total"]
            for index in range(have, live):
                tenant = tenants[index % len(tenants)]
                response = router.post(
                    "/v1/slices", body=slice_body(tenant, throughput_mbps=2.0),
                    headers={"x-tenant-id": tenant},
                )
                assert response.status == 201, response.body
            for worker in cluster.shards:  # installs activate
                worker.run_until(worker.sim.now + 5.0)

        grow_to(SMALL)
        probe = Probe(monkeypatch)
        small = measure(cluster, probe, tenants)
        grow_to(LARGE)
        large = measure(cluster, probe, tenants)
        for worker in cluster.shards:
            worker.orchestrator.calendar.verify_index()
            worker.testbed.switch.verify_index()
    finally:
        cluster.close()
    assert small == large, f"per-request work grew with the fleet: {small} -> {large}"
    assert small["vectors per fits"] <= 4
    assert small["keys per install"] <= 2
    # Only what trails the last event each shard journaled.
    assert small["lines decoded per idle poll"] <= SHARDS
    assert small["to_dict per page of 20"] == 20
    # Only the ones the 20 serialised items read.
    assert small["state reads per active page"] == 20
    assert small["state reads per tenant page"] == 20
