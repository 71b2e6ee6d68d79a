"""The durable cursor's two sources serve the same page.

``GET /v1/events?after_lsn=`` reads the leader's in-memory event log
while the log covers the cursor, and the journal otherwise.  On one
durable shard, a random run of creates, deletes, monitoring epochs that
book SLA violations, checkpoints (compaction), a small log capacity
(eviction), a killed store and a warm promotion must leave every page
byte-identical to the journal read, ``ControlPlaneStore.events_after``:
for every cursor from 0 past the head, with and without a tenant.

The log walk stops at the first event at or below the cursor, so it
relies on the LSN stamped on an event rising with its ``seq``; each step
also checks that, and that a stamped event is the journal's own record.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.api.rest import Response
from repro.core.events import EventLog
from tests.cluster.conftest import build_cluster, slice_body

TENANTS = ("tenant-a", "tenant-b")
STEPS = ("create", "create", "delete", "epoch", "checkpoint", "kill")


def disk_page(store, log, cursor: int, tenant, limit: int) -> str:
    """The page the journal read answers, as the API serialises it."""
    pairs = [
        (lsn, event) for lsn, event in store.events_after(cursor)
        if tenant is None or event.get("tenant_id") in (None, tenant)
    ][:limit]
    return Response(status=200, body={
        "events": [dict(event, lsn=lsn) for lsn, event in pairs],
        "last_lsn": store.last_lsn,
        "replay_floor_lsn": store.snapshot_lsn,
        "last_seq": log.last_seq,
    }).json()


def check_feed(worker, limit: int) -> None:
    orch, store = worker.orchestrator, worker.store
    log = orch.events
    stamped = [e for e in log.since(0) if e.lsn]
    lsns = [e.lsn for e in stamped]
    assert lsns == sorted(set(lsns)), "stamped LSNs must rise with seq"
    journaled = dict(store.events_after(0))
    for event in stamped:
        if event.lsn > store.snapshot_lsn:
            assert journaled[event.lsn] == event.to_dict()
    for cursor in range(store.last_lsn + 2):
        for tenant in (None, *TENANTS):
            headers = {"x-tenant-id": tenant} if tenant else None
            got = worker.api.get(f"/v1/events?after_lsn={cursor}&limit={limit}", headers=headers)
            assert got.status == 200, got.body
            assert got.json() == disk_page(store, log, cursor, tenant, limit), (cursor, tenant)


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=9),
    capacity=st.sampled_from([2, 5, 1024]),
    limit=st.sampled_from([1, 4, 1000]),
)
@example(
    steps=["create", "create", "epoch", "checkpoint", "create", "kill", "create", "epoch"],
    capacity=5, limit=4,
)
@example(steps=["create", "delete", "kill", "epoch", "kill", "create"], capacity=2, limit=1000)
def test_every_after_lsn_page_equals_the_journal_read(steps, capacity, limit):
    served = {"memory": 0}
    real_after_lsn = EventLog.after_lsn

    def counted(log, lsn):
        served["memory"] += 1
        return real_after_lsn(log, lsn)

    EventLog.after_lsn = counted
    try:
        with tempfile.TemporaryDirectory() as root:
            cluster = build_cluster(
                Path(root), shards=1,
                orchestrator={"monitoring_epoch_s": 60.0, "event_log_capacity": capacity},
            )
            try:
                run_steps(cluster, steps, limit)
            finally:
                cluster.close()
    finally:
        EventLog.after_lsn = real_after_lsn
    assert served["memory"] > 0  # the head is always the log's


def run_steps(cluster, steps, limit: int) -> None:
    worker = cluster.shard(0)
    standby = cluster.standby_for(0)
    live = []
    check_feed(worker, limit)
    for index, step in enumerate(steps):
        if step == "create":
            tenant = TENANTS[index % 2]
            response = worker.api.post(
                "/v1/slices", body=slice_body(tenant, throughput_mbps=4.0),
                headers={"x-tenant-id": tenant},
            )
            assert response.status in (201, 409), response.body
            if response.status == 201:
                live.append((response.body["slice_id"], tenant))
        elif step == "delete" and live:
            slice_id, tenant = live.pop(0)
            response = worker.api.delete(f"/v1/slices/{slice_id}", headers={"x-tenant-id": tenant})
            assert response.status in (200, 404, 409), response.body
        elif step == "epoch":
            # Every link down for one epoch: no detour, every active SLA violated.
            links = worker.orchestrator.allocator.transport.topology.links()
            for link in links:
                link.fail()
            worker.run_until(worker.orchestrator.sim.now + 65.0)
            for link in links:
                link.restore()
            worker.run_until(worker.orchestrator.sim.now + 65.0)
        elif step == "checkpoint":
            assert worker.api.post("/v1/admin/checkpoint").status == 200
        elif step == "kill":
            standby.poll()
            cluster.kill_leader(0)
            check_feed(worker, limit)  # the dead plane still answers
            cluster.adopt_promotion(0, standby.promote(force=True))
            standby = cluster.standby_for(0)
            promoted = worker.orchestrator
            live = [(s.slice_id, s.request.tenant_id) for s in promoted.live_slices()]
            # Known defect 1: adoption opens no ledger account, and an
            # adopted slice's first violation would raise.
            for network_slice in promoted.live_slices():
                if network_slice.slice_id not in promoted.ledger._entries:
                    promoted.ledger.book_admission(network_slice.slice_id, network_slice.request)
        standby.poll()
        check_feed(worker, limit)
