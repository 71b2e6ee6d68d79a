"""A broker window installs on the thread that flushed it.

With the four in-process adapters resolving their futures inline and
the planner draining one run queue on the calling thread, a window's
install is a pure function of its requests: same reservation ids, same
journal, byte for byte.  What the window did southbound is journaled
as each job's ``trail`` — every landed transition, in landing order —
inside the ``slice.installed`` or ``slice.rejected`` record that settles
the job; replay never folds it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.slices import SLA, ServiceType, SliceRequest
from repro.drivers.adapters import TransportDriver
from repro.drivers.base import BaseDriver, DriverError
from repro.store.codec import ReplayState, trail_of
from repro.store.journal import JournalRecord
from repro.traffic.patterns import ConstantProfile
from tests.core.test_install_executors import build_stack, request_stream

WINDOW = 12


def windows(seed: int):
    """The executor-contract request stream cut into broker windows:
    ``(flush time, [(request, profile), ...])``."""
    batch = []
    for now, kwargs in request_stream(seed):
        profile = ConstantProfile(kwargs["sla"].throughput_mbps, level=0.5, noise_std=0.0)
        batch.append((SliceRequest(**kwargs), profile))
        if len(batch) == WINDOW:
            yield now, batch
            batch = []


def test_same_window_twice_yields_byte_identical_journals(tmp_path):
    """Spec + seed reproduce the run: two fresh durable stacks fed the
    same windows write the same journal file — reservation ids, record
    order and all.  (With a thread per southbound call, which domain's
    record landed first was decided by the scheduler.)"""
    journals = []
    for name in ("first", "second"):
        _, sim, orchestrator = build_stack(tmp_path / name)
        admitted = 0
        for now, window in windows(seed=23):
            sim.run_until(now)
            decisions = orchestrator.install_admitted_batch(window)
            admitted += sum(d.admitted for d in decisions)
        assert 0 < admitted < 60  # both outcomes, or the comparison is hollow
        orchestrator.store.close()
        with open(orchestrator.store.journal.path, "rb") as handle:
            journals.append(handle.read())
    assert journals[0] == journals[1]
    assert b'"trail"' in journals[0] and b"-res-" in journals[0]
    assert b'"driver.trail"' not in journals[0]


class PickyTransport(TransportDriver):
    """Refuses, per slice, paths to the listed gateways — the race
    placement planning cannot see."""

    def __init__(self, controller, refuse):
        super().__init__(controller)
        self.refuse = refuse

    def _do_prepare(self, spec):
        if spec.attributes["dst"] in self.refuse.get(spec.slice_id, ()):
            raise DriverError(self.domain, f"no path to {spec.attributes['dst']}")
        return super()._do_prepare(spec)


def embb_request(request_id: str) -> SliceRequest:
    return SliceRequest(
        request_id=request_id,
        tenant_id="tenant-a",
        service_type=ServiceType.EMBB,
        sla=SLA(throughput_mbps=10.0, max_latency_ms=50.0, duration_s=600.0),
        price=100.0,
        penalty_rate=1.0,
    )


@pytest.fixture
def landed(monkeypatch):
    """Every reservation transition that lands in any ``BaseDriver``,
    in landing order: ``(slice_id, (kind, domain, reservation_id))``."""
    log = []

    def spy(method, kind):
        original = getattr(BaseDriver, method)

        def wrapper(self, target):
            reservation = (
                self.reservation_of(target) if method == "release" else target
            )
            result = original(self, target)
            reservation = result if method == "prepare" else reservation
            log.append(
                (reservation.slice_id, (kind, self.domain, reservation.reservation_id))
            )
            return result

        monkeypatch.setattr(BaseDriver, method, wrapper)

    spy("prepare", "prepared")
    spy("commit", "committed")
    spy("rollback", "rolled_back")
    spy("release", "released")
    return log


def test_one_trail_record_per_job_holds_every_landed_transition(tmp_path, landed):
    """The record that settles a job — ``slice.installed`` for a
    winner, ``slice.rejected`` for a job every attempt of which failed —
    carries its whole trail, and carries the feed event too: the window
    writes one record per settled job."""
    testbed, _, orchestrator = build_stack(tmp_path)
    # eMBB candidates: the core DC first, then the edge.
    first_dc, _ = sorted(
        testbed.cloud.datacenters(), key=lambda dc: dc.tier.value != "core"
    )
    gateways = {dc.gateway_node for dc in testbed.cloud.datacenters()}
    first_try, second_dc, nowhere = "slice-710001", "slice-710002", "slice-710003"
    orchestrator.registry.register(
        PickyTransport(
            testbed.transport,
            refuse={second_dc: {first_dc.gateway_node}, nowhere: gateways},
        ),
        replace=True,
    )
    decisions = orchestrator.install_admitted_batch(
        [
            (embb_request(slice_id.replace("slice-", "req-")), ConstantProfile(10.0))
            for slice_id in (first_try, second_dc, nowhere)
        ]
    )
    assert [d.admitted for d in decisions] == [True, True, False]

    records = orchestrator.store.records()
    trails = [r for r in records if "trail" in r.data]
    assert [(r.record_type, r.data["slice_id"]) for r in trails] == [
        ("slice.installed", first_try),
        ("slice.installed", second_dc),
        ("slice.rejected", nowhere),
    ]
    assert [r.data["event"]["type"] for r in trails] == [
        "slice.admitted", "slice.admitted", "slice.rejected"
    ]
    assert not [r for r in records if r.record_type.startswith("driver.")]
    by_slice = {r.data["slice_id"]: trail_of(r.data) for r in trails}
    # A settled install writes each id its reservations name once.
    for record in trails[:2]:
        ids = set(record.data["reservations"].values())
        assert not [entry for entry in record.data["trail"] if entry[2:] and entry[2] in ids]
    # Exactly what landed in the drivers, exactly once, in landing order.
    for slice_id, trail in by_slice.items():
        assert trail == [entry for owner, entry in landed if owner == slice_id]
        assert len(set(trail)) == len(trail)
    assert sum(len(t) for t in by_slice.values()) == len(landed)

    order = ["ran", "transport", "cloud", "epc"]
    shape = {s: [(k, d) for k, d, _ in trail] for s, trail in by_slice.items()}

    # Which prepare of a wave lands first depends on who got its
    # driver's token first; everything else is fixed: epc after cloud,
    # commits in registry order, unwinds in reverse registry order.
    def assert_refused_attempt(entries):
        assert sorted(entries[:2]) == [("prepared", "cloud"), ("prepared", "ran")]
        assert entries[2:] == [("rolled_back", "cloud"), ("rolled_back", "ran")]

    def assert_clean_install(entries):
        prepares, commits = entries[:4], entries[4:]
        assert sorted(prepares) == sorted(("prepared", d) for d in order)
        assert prepares.index(("prepared", "epc")) > prepares.index(("prepared", "cloud"))
        assert commits == [("committed", d) for d in order]

    assert_clean_install(shape[first_try])
    assert_refused_attempt(shape[second_dc][:4])
    assert_clean_install(shape[second_dc][4:])
    assert len(shape[nowhere]) == 4 * len(gateways)
    for attempt in range(len(gateways)):
        assert_refused_attempt(shape[nowhere][4 * attempt : 4 * attempt + 4])
    # The committed ids are the ones the install acknowledged.
    installed = {
        r.data["slice_id"]: r.data["reservations"]
        for r in records
        if r.record_type == "slice.installed"
    }
    for slice_id in (first_try, second_dc):
        assert installed[slice_id] == {
            d: rid for k, d, rid in by_slice[slice_id] if k == "committed"
        }
    # A retried-then-successful install still puts no rollback on the
    # feed; the failed one surfaces all of its own.
    rollbacks = [
        e for e in orchestrator.events.since(0) if e.event_type == "driver.rollback"
    ]
    assert {e.slice_id for e in rollbacks} == {nowhere}
    assert len(rollbacks) == 2 * len(gateways)

    # Replay folds no trail: stripping it changes nothing, and a
    # journal holding the old per-operation records replays too.
    digest = ReplayState.restore(None, records).digest()
    without = [
        replace(r, data={k: v for k, v in r.data.items() if k != "trail"})
        for r in records
    ]
    assert ReplayState.restore(None, without).digest() == digest
    legacy = []
    for record in without:
        legacy.append(record)
        if record.record_type == "install.started":
            for kind in ("driver.prepared", "driver.committed"):
                legacy.append(
                    JournalRecord(
                        lsn=record.lsn,
                        time=record.time,
                        record_type=kind,
                        data={
                            "domain": "ran",
                            "slice_id": record.data["slice_id"],
                            "reservation_id": "ran-res-000001",
                        },
                    )
                )
    assert ReplayState.restore(None, legacy).digest() == digest
