"""One code path per lifecycle verb.

A slice goes live through ``LiveFleet.go_live`` (an acknowledged
install or a recovery's re-adoption), changes size through
``LiveFleet.resize`` (a tenant's rescale or an overbooking move) and
stops holding resources through ``LiveFleet.retire`` (timer expiry,
early termination or cancellation).  Each section pins what the two
callers of one path must agree on — the disagreements the forked
implementations had — and the last that the fleet is the one writer
of what a live slice holds.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.forecasting import NaiveForecaster
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.overbooking import OverbookingDecision, OverbookingPolicy
from repro.core.pricing import LedgerError
from repro.core.epoch import LiveFleet, SliceRuntime
from repro.core.slices import NetworkSlice, SliceState
from repro.drivers.base import DriverError, ReservationState
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.store import RecoveryManager
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.source_reading import enclosing_functions, source_of, src_lines_matching
from tests.store.conftest import make_orchestrator, reopen_store

EPOCH_S = 60.0


def quiet_profile(mbps: float) -> ConstantProfile:
    return ConstantProfile(mbps, level=0.5, noise_std=0.0)


# ----------------------------------------------------------------------
# (a) Go live: a re-adopted slice is the slice an install produced
# ----------------------------------------------------------------------
def _lifecycle_view(orch: Orchestrator, slice_id: str) -> dict:
    """What a live slice looks like from its own clock's ``now``."""
    network_slice = orch.slice(slice_id)
    runtime = orch.runtime(slice_id)
    booking = orch.calendar.get(network_slice.request.request_id)
    now = orch.sim.now
    return {
        "state": network_slice.state,
        "plmn": network_slice.plmn.plmn_id,
        "reservations": {
            domain: r.reservation_id for domain, r in runtime.reservations.items()
        },
        "fraction": runtime.effective_fraction,
        "since_admitted": now - network_slice.admitted_at,
        "served": None
        if network_slice.active_at is None
        else now - network_slice.active_at,
        "window_left": booking.end - now,
    }


#: Seconds between the install and the crash: under deploy_time_s (3 s)
#: the slice is DEPLOYING at the crash, over it ACTIVE.
CRASH_LEAD = {
    SliceState.DEPLOYING: st.floats(min_value=0.25, max_value=2.75),
    SliceState.ACTIVE: st.floats(min_value=3.25, max_value=200.0),
}


@pytest.mark.parametrize("state_at_crash", list(CRASH_LEAD), ids=lambda s: s.value)
@pytest.mark.parametrize(
    "respect_calendar", [True, False], ids=["calendar", "ignore-calendar"]
)
@settings(max_examples=10, deadline=None)
@given(
    data=st.data(),
    lifetime=st.floats(min_value=240.0, max_value=1_500.0),
    extra_epochs=st.integers(min_value=0, max_value=2),
)
def test_adopted_slice_equals_its_installed_twin(
    respect_calendar, state_at_crash, data, lifetime, extra_epochs
):
    """Twin durable testbeds: A installs and keeps running, B installs,
    crashes at the same instant and recovers.  From then on the slice
    is the same slice on both — except its ledger account, which
    adoption does not open yet (the strict xfail
    ``tests/store/test_recovery.py::test_readopted_slices_keep_their_ledger_accounts``
    states that defect)."""
    lead = data.draw(CRASH_LEAD[state_at_crash], label="lead")
    # The crash lands on a monitoring tick, so the newest journaled time
    # — what recovery takes for the crash instant — is exact.
    crash_at = EPOCH_S * (int(lead // EPOCH_S) + 1 + extra_epochs)
    install_at = crash_at - lead
    request = make_request(throughput_mbps=10.0, duration_s=lifetime)
    with tempfile.TemporaryDirectory() as root:
        twins = []
        for name in ("a", "b"):
            testbed = build_testbed(TestbedConfig(plmn_pool_size=8))
            orch = make_orchestrator(
                testbed, directory=f"{root}/{name}", respect_calendar=respect_calendar
            )
            orch.start()
            orch.sim.run_until(install_at)
            decision = orch.submit(request, quiet_profile(10.0))
            assert decision.admitted
            orch.sim.run_until(crash_at)
            twins.append((testbed, orch))
        slice_id = decision.slice_id
        (_, installed), (testbed_b, crashed) = twins
        assert installed.slice(slice_id).state is state_at_crash

        crashed.store.close()
        adopted = make_orchestrator(
            testbed_b,
            store=reopen_store(f"{root}/b"),
            respect_calendar=respect_calendar,
        )
        report = RecoveryManager(adopted).restore()
        adopted.start()
        assert (report.slices_adopted, report.slices_lost) == (1, 0)

        ours, theirs = _lifecycle_view(adopted, slice_id), _lifecycle_view(
            installed, slice_id
        )
        for key in ("state", "plmn", "reservations", "fraction"):
            assert ours[key] == theirs[key], key
        for key in ("since_admitted", "served", "window_left"):
            assert ours[key] == pytest.approx(theirs[key], abs=1e-6), key

        # ... and it turns ACTIVE and EXPIRED at the same instants: the
        # restart continues the shard's clock from the crash.
        assert adopted.sim.now == crash_at
        horizon = lifetime + 10.0
        installed.sim.run_until(crash_at + horizon)
        adopted.sim.run_until(crash_at + horizon)
        for orch, origin in ((installed, crash_at), (adopted, crash_at)):
            network_slice = orch.slice(slice_id)
            assert network_slice.state is SliceState.EXPIRED
            assert orch.runtime(slice_id) is None
            assert network_slice.active_at - origin == pytest.approx(
                install_at + 3.0 - crash_at, abs=1e-6
            )
            assert network_slice.expired_at - origin == pytest.approx(
                install_at + 3.0 + lifetime - crash_at, abs=1e-6
            )


@pytest.mark.parametrize(
    "active_at, state",
    [(None, SliceState.ACTIVE), (-5_000.0, SliceState.EXPIRED)],
    ids=["activation-overdue", "expiry-overdue"],
)
def test_a_timer_already_due_at_adoption_fires_at_once(active_at, state):
    """The build takes absolute instants that may lie in the past; what
    was due before the bind happens on the clock's first step."""
    testbed = build_testbed(TestbedConfig(plmn_pool_size=8))
    first = make_orchestrator(testbed)
    decision = first.submit(
        make_request(throughput_mbps=10.0, duration_s=600.0), quiet_profile(10.0)
    )
    second = make_orchestrator(testbed)  # same southbound, new control plane
    network_slice = first.slice(decision.slice_id)
    reservations = {
        d.domain: d.reservation_of(decision.slice_id) for d in testbed.registry.drivers()
    }
    # (request, plmn_id, fraction, admitted_at, active_at, window)
    [adopted] = second.build_recovered_slices(
        [(network_slice.request, network_slice.plmn.plmn_id, 1.0, -6_000.0, active_at, None)]
    )
    second.runtime(decision.slice_id).reservations.update(reservations)
    second.fleet.bind([second.runtime(decision.slice_id)])
    assert adopted.admitted_at == -6_000.0 and adopted.active_at == active_at
    second.sim.run_until(0.0)
    assert adopted.state is state
    if state is SliceState.EXPIRED:
        assert second.runtime(decision.slice_id) is None
        assert not second.calendar.has(network_slice.request.request_id)


# ----------------------------------------------------------------------
# (b) Retire: one exit for expiry, early termination and cancellation
# ----------------------------------------------------------------------
PRICE = 100.0
LIFETIME_S = 600.0


@pytest.fixture
def durable(tmp_path):
    testbed = build_testbed(TestbedConfig(plmn_pool_size=8))
    directory = str(tmp_path / "store")
    orch = make_orchestrator(testbed, directory=directory)
    orch.start()
    decision = orch.submit(
        make_request(throughput_mbps=10.0, duration_s=LIFETIME_S, price=PRICE),
        quiet_profile(10.0),
    )
    assert decision.admitted
    return testbed, orch, directory, decision.slice_id


#: (sim instant, tenant verb or None for the expiry timer)
AT_EXPIRY = (3.0 + LIFETIME_S + 1.0, None)
A_QUARTER_SERVED = (3.0 + LIFETIME_S / 4, "terminate_early")
STILL_DEPLOYING = (1.0, "cancel")


@pytest.mark.parametrize(
    "exit_, terminal, refund",
    [
        (AT_EXPIRY, SliceState.EXPIRED, 0.0),
        (A_QUARTER_SERVED, SliceState.EXPIRED, 0.75 * PRICE),
        (STILL_DEPLOYING, SliceState.CANCELLED, PRICE),
    ],
    ids=["expiry", "terminate_early", "cancel"],
)
def test_every_exit_leaves_nothing_behind(durable, exit_, terminal, refund):
    testbed, orch, _, slice_id = durable
    request_id = orch.slice(slice_id).request.request_id
    assert orch.calendar.has(request_id)
    at, verb = exit_
    orch.sim.run_until(at)
    if verb is not None:
        assert getattr(orch, verb)(slice_id) == pytest.approx(refund)

    assert orch.slice(slice_id).state is terminal
    assert orch.runtime(slice_id) is None
    for driver in testbed.registry.drivers():
        assert driver.list_reservations() == [], driver.domain
    assert orch.plmn_pool.available == testbed.config.plmn_pool_size
    assert not orch.calendar.has(request_id)
    name = f"slice.{terminal.value}"
    # One record per exit, carrying the one feed event it raised.
    [event] = [e for e in orch.events.since(0) if e.event_type == name]
    assert [r.data for r in orch.store.records() if r.record_type == name] == [
        {"slice_id": slice_id, "event": event.to_dict()}
    ]
    assert orch.ledger.gross_revenue == pytest.approx(PRICE - refund)


@pytest.mark.parametrize(
    "exit_, state",
    [
        (A_QUARTER_SERVED, SliceState.ACTIVE),
        (STILL_DEPLOYING, SliceState.DEPLOYING),
    ],
    ids=["terminate_early", "cancel"],
)
def test_a_refused_refund_leaves_the_slice_whole(durable, monkeypatch, exit_, state):
    """The refund is the one step of a tenant's exit that can refuse, so
    it is booked before anything is torn down: a refusal leaves a slice
    the next recovery still adopts."""
    testbed, orch, directory, slice_id = durable

    def refuse(slice_id, amount):
        raise LedgerError(f"slice {slice_id} has no account")

    monkeypatch.setattr(orch.ledger, "book_refund", refuse)
    at, verb = exit_
    orch.sim.run_until(at)
    lsn_before = orch.store.last_lsn
    with pytest.raises(LedgerError):
        getattr(orch, verb)(slice_id)

    network_slice = orch.slice(slice_id)
    assert network_slice.state is state
    assert orch.runtime(slice_id) is not None
    for driver in testbed.registry.drivers():
        (reservation,) = driver.list_reservations()
        assert reservation.slice_id == slice_id
        assert reservation.state is ReservationState.COMMITTED
    assert orch.calendar.has(network_slice.request.request_id)
    assert orch.store.last_lsn == lsn_before

    orch.store.close()  # the process dies right after
    restarted = make_orchestrator(testbed, store=reopen_store(directory))
    report = RecoveryManager(restarted).restore()
    assert (report.slices_adopted, report.slices_lost) == (1, 0)
    assert restarted.slice(slice_id).state is state


# ----------------------------------------------------------------------
# (c) Resize: tenant rescales and overbooking moves, one chain
# ----------------------------------------------------------------------
class ScriptedOverbooking(OverbookingPolicy):
    """Answers whatever fraction the test last scripted for a slice
    (full nominal until then, the cold start included)."""

    def __init__(self) -> None:
        self.fractions: dict = {}

    def decide(self, slice_id, nominal, forecaster=None):
        return OverbookingDecision(
            slice_id=slice_id,
            nominal=nominal,
            effective=nominal * self.fractions.get(slice_id, 1.0),
        )


#: Foreign reservation filling the edge fibre every path ends on.
FILLER = "filler"
SHARED_LINK = "switch-edge-fwd"


def _resize_bed(throughputs, spare_mbps):
    """ACTIVE slices, one demand sample each, whose two-link paths all
    end on one fibre with ``spare_mbps`` left beyond what they hold."""
    testbed = build_testbed(TestbedConfig())
    policy = ScriptedOverbooking()
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        overbooking=policy,
        forecaster_factory=NaiveForecaster,
        config=OrchestratorConfig(min_history_for_forecast=1),
        streams=RandomStreams(seed=3),
        registry=testbed.registry,
    )
    orch.start()
    slice_ids = []
    for mbps in throughputs:
        decision = orch.submit(
            make_request(throughput_mbps=mbps, max_latency_ms=8.0),
            quiet_profile(mbps),
        )
        assert decision.admitted, decision.reason
        slice_ids.append(decision.slice_id)
    sim.run_until(EPOCH_S + 1.0)
    shared = testbed.transport.topology.link(SHARED_LINK)
    for slice_id in slice_ids:
        path = orch.slice(slice_id).allocation.transport.path.link_ids
        assert len(path) == 2 and path[1] == SHARED_LINK
    filler = shared.residual_mbps - spare_mbps
    shared.reserve(FILLER, filler, filler)
    return testbed, orch, policy, slice_ids


def _everything(testbed, orch, slice_ids) -> dict:
    """Every place a slice's size is written down."""
    state: dict = {
        "links": {
            link.link_id: sorted(
                (r.slice_id, r.nominal_mbps, r.effective_mbps)
                for r in link._reservations.values()
            )
            for link in testbed.transport.topology.links()
        },
        "cells": {
            enb.enb_id: sorted(
                (s, enb.grid.reservation(s).nominal, enb.grid.reservation(s).effective)
                for s in enb.grid._reservations
            )
            for enb in testbed.enbs
        },
    }
    for slice_id in slice_ids:
        network_slice, runtime = orch.slice(slice_id), orch.runtime(slice_id)
        state[slice_id] = (
            network_slice.request.sla,
            runtime.effective_fraction,
            network_slice.allocation,
            orch.calendar.get(network_slice.request.request_id).demand,
            {d: (r.spec, dict(r.details)) for d, r in runtime.reservations.items()},
        )
    return state


def _check_agreement(testbed, orch, slice_ids) -> None:
    """All the copies of a slice's size say the same thing."""
    topology = testbed.transport.topology
    for link in topology.links():
        link.check_invariants()
        assert link.effective_reserved_mbps <= link.capacity_mbps + 1e-9
    for enb in testbed.enbs:
        enb.grid.check_invariants()
    for slice_id in slice_ids:
        network_slice, runtime = orch.slice(slice_id), orch.runtime(slice_id)
        request = network_slice.request
        allocation = network_slice.allocation
        for link_id in allocation.transport.path.link_ids:
            on_link = topology.link(link_id)._reservations[slice_id]
            assert (on_link.nominal_mbps, on_link.effective_mbps) == (
                allocation.transport.nominal_mbps,
                allocation.transport.effective_mbps,
            ), link_id
        assert allocation.transport.nominal_mbps == request.sla.throughput_mbps
        assert allocation.transport.effective_mbps == pytest.approx(
            request.sla.throughput_mbps * runtime.effective_fraction
        )
        on_cell = testbed.ran.enb(allocation.ran.enb_id).grid.reservation(slice_id)
        assert (on_cell.nominal, on_cell.effective) == (
            allocation.ran.nominal_prbs,
            allocation.ran.effective_prbs,
        )
        for driver in testbed.registry.drivers():
            assert runtime.reservations[driver.domain] is driver.reservation_of(slice_id)
        for domain in ("ran", "transport", "cloud"):
            assert getattr(allocation, domain) == (
                runtime.reservations[domain].details["allocation"]
            )
        assert orch.calendar.get(request.request_id).demand == orch.allocator.size(
            request, runtime.effective_fraction
        ).demand


STEP = st.tuples(
    st.booleans(),  # tenant rescale (else an overbooking move)
    st.integers(min_value=0, max_value=3),  # which slice
    st.floats(min_value=2.0, max_value=60.0),  # the tenant's new throughput
    st.floats(min_value=0.1, max_value=1.0),  # the engine's new fraction
)


@settings(max_examples=40, deadline=None)
@given(
    throughputs=st.lists(
        st.floats(min_value=4.0, max_value=12.0), min_size=2, max_size=4
    ),
    # Spare bandwidth on the shared second link: sometimes it binds
    # before the cells (~49 Mb/s each) do, sometimes after.
    spare=st.floats(min_value=0.0, max_value=40.0),
    steps=st.lists(STEP, min_size=1, max_size=12),
)
def test_rescales_and_overbooking_moves_keep_every_copy_in_step(
    throughputs, spare, steps
):
    testbed, orch, policy, slice_ids = _resize_bed(throughputs, spare)
    _check_agreement(testbed, orch, slice_ids)
    for tenant, which, throughput, fraction in steps:
        slice_id = slice_ids[which % len(slice_ids)]
        runtime = orch.runtime(slice_id)
        sla = runtime.network_slice.request.sla
        was = (sla.throughput_mbps, runtime.effective_fraction)
        before = _everything(testbed, orch, slice_ids)
        if tenant:
            wanted = (throughput, was[1])
            accepted = orch.modify_slice(slice_id, throughput).admitted
        else:
            wanted = (was[0], fraction)
            policy.fractions = {slice_id: fraction}
            orch.fleet.reconfigure({slice_id: runtime}, policy)
            # Refused, or too small a move for the engine to bother.
            accepted = runtime.effective_fraction != was[1]
        if accepted:
            sla = runtime.network_slice.request.sla
            assert (sla.throughput_mbps, runtime.effective_fraction) == pytest.approx(wanted)
        else:
            assert _everything(testbed, orch, slice_ids) == before
        _check_agreement(testbed, orch, slice_ids)


def test_a_grow_back_that_fails_on_the_second_link_changes_nothing():
    """The overbooking engine shrank a 40 Mb/s slice to half; newcomers
    then filled the second link of its path.  Growing back fits the
    first link and not the second — every link, the allocation and the
    calendar must still say 20."""
    testbed, orch, policy, (slice_id,) = _resize_bed([40.0], spare_mbps=0.0)
    runtime = orch.runtime(slice_id)
    policy.fractions = {slice_id: 0.5}
    orch.fleet.reconfigure({slice_id: runtime}, policy)
    assert runtime.effective_fraction == 0.5
    shared = testbed.transport.topology.link(SHARED_LINK)
    shared.reserve("newcomer", shared.residual_mbps, shared.residual_mbps)
    before = _everything(testbed, orch, [slice_id])

    with pytest.raises(DriverError, match="transport"):
        orch.fleet.resize(runtime, 40.0, 1.0)
    assert _everything(testbed, orch, [slice_id]) == before
    _check_agreement(testbed, orch, [slice_id])
    path = orch.slice(slice_id).allocation.transport.path.link_ids
    assert [
        testbed.transport.topology.link(l)._reservations[slice_id].effective_mbps
        for l in path
    ] == [20.0, 20.0]

    # The engine's own loop swallows the refusal: the overbooking risk
    # surfaces as SLA violations instead.
    policy.fractions = {slice_id: 1.0}
    orch.fleet.reconfigure({slice_id: runtime}, policy)
    assert runtime.effective_fraction == 0.5
    assert _everything(testbed, orch, [slice_id]) == before


@pytest.mark.parametrize(
    "throughputs, spare, rescale_to, refused_by",
    [
        # 60 Mb/s would need ~122 of the cell's 100 PRBs.
        ([30.0], 1_000.0, 60.0, "ran"),
        # Fits the cell and the first link; the shared fibre has 5 to spare.
        ([10.0, 10.0], 5.0, 16.0, "transport"),
    ],
    ids=["cell", "second-link"],
)
def test_a_tenant_rescale_that_does_not_fit_changes_nothing(
    throughputs, spare, rescale_to, refused_by
):
    testbed, orch, _, slice_ids = _resize_bed(throughputs, spare)
    before = _everything(testbed, orch, slice_ids)
    decision = orch.modify_slice(slice_ids[0], rescale_to)
    assert not decision.admitted and f"[{refused_by}]" in decision.reason
    assert _everything(testbed, orch, slice_ids) == before
    _check_agreement(testbed, orch, slice_ids)


def test_the_drivers_resize_a_fraction_move_like_a_rescale():
    """Below the driver contract there is one chain: a fraction move is
    a re-nomination at an unchanged nominal, atomic across the path."""
    testbed, orch, _, (slice_id,) = _resize_bed([40.0], spare_mbps=0.0)
    ran, transport = testbed.registry.get("ran"), testbed.registry.get("transport")
    spec = transport.reservation_of(slice_id).spec
    for driver in (ran, transport):
        driver.resize(slice_id, replace(driver.reservation_of(slice_id).spec,
                                        effective_fraction=0.5))
    allocation = testbed.ran.enb("enb1").grid.reservation(slice_id)
    assert allocation.effective == round(allocation.nominal * 0.5)
    assert testbed.transport.allocation_of(slice_id).effective_mbps == 20.0
    shared = testbed.transport.topology.link(SHARED_LINK)
    shared.reserve("newcomer", shared.residual_mbps, shared.residual_mbps)
    with pytest.raises(DriverError, match="does not fit on switch-edge-fwd"):
        transport.resize(slice_id, spec)  # back to the full 40 Mb/s
    for link_id in testbed.transport.allocation_of(slice_id).path.link_ids:
        on_link = testbed.transport.topology.link(link_id)._reservations[slice_id]
        assert (on_link.nominal_mbps, on_link.effective_mbps) == (40.0, 20.0)
    assert transport.reservation_of(slice_id).spec.effective_fraction == 0.5


def test_a_repair_recomposes_the_allocation_from_the_reservations():
    testbed, orch, _, (slice_id,) = _resize_bed([10.0], spare_mbps=100.0)
    first_link = orch.slice(slice_id).allocation.transport.path.link_ids[0]
    testbed.transport.topology.link(first_link).fail()
    orch.sim.run_until(2 * EPOCH_S + 1.0)
    assert testbed.transport.repairs_performed == 1
    allocation = orch.slice(slice_id).allocation
    assert first_link not in allocation.transport.path.link_ids
    assert allocation.transport is testbed.transport.allocation_of(slice_id)
    _check_agreement(testbed, orch, [slice_id])


# ----------------------------------------------------------------------
# One path per verb, as the source reads
# ----------------------------------------------------------------------
ORCHESTRATOR = source_of("core/orchestrator.py")
EPOCH = source_of("core/epoch.py")


def test_a_runtime_is_constructed_in_one_function():
    assert src_lines_matching(r"\bSliceRuntime\(") == src_lines_matching(
        r"\bSliceRuntime\(", "core/epoch.py"
    )
    assert enclosing_functions(EPOCH, r"\bSliceRuntime\(") == ["build"]


def test_a_slice_is_torn_down_from_one_function():
    assert src_lines_matching(r"\breleases\.release\(") == src_lines_matching(
        r"\breleases\.release\(", "core/epoch.py"
    )
    assert enclosing_functions(EPOCH, r"\breleases\.release\(") == ["retire"]


def test_a_size_is_applied_in_one_function():
    assert src_lines_matching(r"calendar\.update_demand\(") == src_lines_matching(
        r"calendar\.update_demand\(", "core/epoch.py"
    )
    assert enclosing_functions(EPOCH, r"calendar\.update_demand\(") == ["apply_size"]
    assert src_lines_matching(r"\bEndToEndAllocation\(") == src_lines_matching(
        r"\bEndToEndAllocation\(", "core/allocation.py"
    )
    assert enclosing_functions(source_of("core/allocation.py"), r"\bEndToEndAllocation\(") == [
        "compose_allocation"
    ]
    # A live slice's allocation is recomposed from what it holds in one place.
    assert enclosing_functions(EPOCH, r"\bcompose_allocation\(") == ["_hold"]
    assert enclosing_functions(ORCHESTRATOR, r"\bcompose_allocation\(") == [
        "_validate_latency"
    ]
    # No special case for one domain's reservation anywhere above the drivers.
    assert src_lines_matching(
        r"driver\.domain\s*[=!]=\s*[\"']", "core/orchestrator.py", "core/epoch.py"
    ) == []


#: A write to the runtime table: an item set or deleted, or a mutating method.
RUNTIMES_WRITTEN = (
    r"\bruntimes\[[^\]]*\]\s*=[^=]|\bdel\s+[\w.]*runtimes\["
    r"|\bruntimes\.(pop|popitem|clear|update|setdefault)\("
)


def test_the_live_fleet_is_the_one_writer_of_what_a_live_slice_holds():
    """The runtime table is written, and a runtime built, in
    ``core/epoch.py`` only; a slice carries no pointer back into the
    control plane, and the slice records live in the index alone."""
    assert {hit.split(":")[0] for hit in src_lines_matching(RUNTIMES_WRITTEN)} == {
        "core/epoch.py"
    }
    assert {hit.split(":")[0] for hit in src_lines_matching(r"\bSliceRuntime\(")} == {
        "core/epoch.py"
    }
    network_slice = NetworkSlice(make_request())
    for pointer in ("touched", "index", "fleet"):
        assert not hasattr(network_slice, pointer), pointer
    assert not hasattr(SliceRuntime, "hold")
    assert not any(hasattr(LiveFleet, gone) for gone in ("add", "forecast"))
    testbed = build_testbed(TestbedConfig(plmn_pool_size=8))
    orch = make_orchestrator(testbed)
    assert not hasattr(orch, "_all_slices") and not hasattr(orch, "forecaster_factory")
    assert src_lines_matching(r"\b_all_slices\b") == []
    decision = orch.submit(make_request(throughput_mbps=10.0), quiet_profile(10.0))
    assert orch.slice(decision.slice_id) is orch.slice_index.records[decision.slice_id]


def test_the_forked_chains_are_gone():
    assert src_lines_matching(r"_remaining_s") == []
    assert src_lines_matching(
        r"def resize\b|resize_slice|resize_path", "ran", "transport", "drivers/adapters.py"
    ) == []
