"""The durable feed is the in-memory feed, event for event.

One mixed run through a durable shard: synchronous creates, a broker
window with a loser and an install every attempt of which unwinds, an
expiry, a cancel, a rescale, an overbooking move and a booking cancel;
then the leader dies, the warm standby promotes, and the new leader
cancels a re-promised booking and expires an adopted slice.  A consumer
polling ``events_after`` after every step reads every event of both
leaders' in-memory feeds exactly once, ``seq`` rising with the LSN —
an event's LSN is its transition's.  Only the ``slice.adopted`` notices
a promotion raises stay in memory: the checkpoint closing the recovery
is the adoption's durable statement.
"""

from __future__ import annotations

from repro.core.forecasting import NaiveForecaster
from repro.core.slices import SLA, ServiceType, SliceRequest
from repro.traffic.patterns import ConstantProfile
from tests.cluster.conftest import build_cluster
from tests.core.test_lifecycle_paths import ScriptedOverbooking


def request(name: str, mbps: float, duration_s: float = 3_600.0) -> SliceRequest:
    return SliceRequest(
        tenant_id="tenant-0",
        service_type=ServiceType.EMBB,
        sla=SLA(throughput_mbps=mbps, max_latency_ms=50.0, duration_s=duration_s),
        price=100.0,
        penalty_rate=1.0,
        request_id=f"req-feed-{name}",
    )


def quiet(mbps: float) -> ConstantProfile:
    return ConstantProfile(mbps, level=0.5, noise_std=0.0)


def test_durable_feed_equals_the_in_memory_feed_across_a_promotion(tmp_path):
    cluster = build_cluster(tmp_path, shards=1)
    try:
        worker = cluster.shard(0)
        leader = worker.orchestrator
        standby = cluster.standby_for(0)
        worker.testbed.registry.get("firewall").capacity_mbps = 30.0
        durable = []  # (lsn, event) as a polling consumer read them
        cursor = 0

        def step() -> None:
            nonlocal cursor
            durable.extend(worker.store.events_after(cursor))
            cursor = worker.store.last_lsn
            standby.poll()

        created = {
            name: leader.submit(request(name, 5.0, lifetime), quiet(5.0)).slice_id
            for name, lifetime in (("short", 90.0), ("long", 3_600.0), ("cancel", 3_600.0))
        }
        for name, start in (("booking-1", 2_000.0), ("booking-2", 3_000.0)):
            assert leader.submit_advance(request(name, 5.0, 600.0), quiet(5.0), start).admitted
        step()
        leader.sim.run_until(1.0)
        leader.cancel(created["cancel"])
        step()
        for name, mbps, lifetime in (
            ("winner-1", 5.0, 200.0),
            ("winner-2", 5.0, 3_600.0),
            ("loser", 10_000.0, 3_600.0),
            ("unwinds", 40.0, 3_600.0),  # fits a cell, never the firewall
        ):
            worker.service.broker.submit(request(name, mbps, lifetime), quiet(mbps))
        leader.sim.run_until(100.0)  # the short slice expires
        step()
        assert leader.modify_slice(created["long"], 8.0).admitted
        leader.overbooking = ScriptedOverbooking()
        leader.overbooking.fractions = {created["long"]: 0.5}
        leader.config.min_history_for_forecast = 1
        leader.fleet.forecaster_factory = NaiveForecaster
        step()
        leader.sim.run_until(400.0)  # reconfigures at 300, the window flushes at 301
        leader.cancel_advance("req-feed-booking-1")
        step()

        cluster.kill_leader(0)
        cluster.adopt_promotion(0, standby.promote(force=True))
        promoted = worker.orchestrator
        step()
        promoted.cancel_advance("req-feed-booking-2")  # re-promised by the recovery
        promoted.sim.run_until(200.0)  # winner-1 expires
        step()

        in_memory = leader.events.since(0) + [
            e for e in promoted.events.since(0) if e.event_type != "slice.adopted"
        ]
        assert [event for _, event in durable] == [e.to_dict() for e in in_memory]
        lsns = [lsn for lsn, _ in durable]
        seqs = [event["seq"] for _, event in durable]
        assert lsns == sorted(set(lsns)) and seqs == sorted(set(seqs))
        assert {
            "slice.admitted", "slice.activated", "slice.expired", "slice.cancelled",
            "slice.rejected", "slice.reconfigured", "booking.cancelled",
            "driver.rollback", "recovery.completed",
        } <= {event["type"] for _, event in durable}
        rejected = [e["slice_id"] for _, e in durable if e["type"] == "slice.rejected"]
        assert sorted(rejected) == ["slice-feed-loser", "slice-feed-unwinds"]
        expired = [e["slice_id"] for _, e in durable if e["type"] == "slice.expired"]
        assert expired == ["slice-feed-short", "slice-feed-winner-1"]
    finally:
        cluster.close()
