"""A request is sized, judged and placed once.

Size: ``Orchestrator._size`` / ``size_window`` take the cold-start
posture and the shrunk demand where the request enters, and that
``SliceSize`` rides through staging, planning and go-live.  Judge: one
promise-window formula and one calendar gate, and a request that passes
holds its window from that moment — online, inside a broker window, or
booking ahead.  Place: ``MultiDomainAllocator.probe`` is the one
placement probe, ``install_attempts`` the one plan on top of it, and
``feasible`` and ``what_if`` report from the same probe.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.allocation import AllocationError, MultiDomainAllocator
from repro.core.broker import SliceBroker
from repro.core.orchestrator import Orchestrator
from repro.core.overbooking import FixedOverbooking, NoOverbooking, OverbookingPolicy
from repro.core.slices import NetworkSlice, SliceState, slice_id_for
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.ran.controller import RanController
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.source_reading import enclosing_functions, source_of, src_lines_matching

GATE_REFUSAL = "conflicts with advance reservations on the calendar"
BOOKING_REFUSAL = "insufficient projected capacity over the booking window"
FOREVER = 1e9


def quiet_profile(mbps: float) -> ConstantProfile:
    return ConstantProfile(mbps, level=0.5, noise_std=0.0)


def build_bed(overbooking=None, **testbed_knobs):
    testbed = build_testbed(TestbedConfig(**testbed_knobs))
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        overbooking=overbooking,
        streams=RandomStreams(seed=9),
    )
    orch.start()
    return sim, orch


def offer(orch: Orchestrator, **kwargs):
    request = make_request(**kwargs)
    return request, orch.submit(request, quiet_profile(request.sla.throughput_mbps))


def state_of(orch: Orchestrator, request) -> SliceState:
    return orch.slice(slice_id_for(request.request_id)).state


# ----------------------------------------------------------------------
# Judge: the gate is cumulative — a window keeps the broker's promises
# ----------------------------------------------------------------------
def test_a_window_keeps_the_promises_an_online_broker_keeps():
    """Two 40 Mb/s slices booked for t = 600 promise 164 of the fleet's
    200 PRBs; three 8 Mb/s requests (17 PRBs each) are offered before
    then.  Two fit beside the promise, the third does not — whether the
    three arrive one by one or in one broker window."""
    verdicts = {}
    for mode in ("online", "window"):
        sim, orch = build_bed()
        booked = [make_request(throughput_mbps=40.0, duration_s=7_200.0) for _ in range(2)]
        for request in booked:
            assert orch.submit_advance(request, quiet_profile(40.0), 600.0).admitted
        offers = [make_request(throughput_mbps=8.0, duration_s=7_200.0) for _ in range(3)]
        if mode == "online":
            decisions = [orch.submit(r, quiet_profile(8.0)) for r in offers]
        else:
            broker = SliceBroker(orch, window_s=10.0)
            for request in offers:
                broker.submit(request, quiet_profile(8.0))
            sim.run_until(11.0)
            decisions = broker.decisions
        verdicts[mode] = [(d.admitted, d.reason) for d in decisions]
        peak = orch.calendar.peak_usage(600.0, 600.0 + 7_200.0)
        assert peak.fits_within(orch.calendar.capacity), (mode, peak)
        sim.run_until(700.0)
        assert [state_of(orch, r) for r in booked] == [SliceState.ACTIVE] * 2, mode
    assert verdicts["online"] == verdicts["window"] == [
        (True, "installed"),
        (True, "installed"),
        (False, GATE_REFUSAL),
    ]


@pytest.mark.parametrize("mode", ["online", "window", "advance"])
def test_an_install_that_fails_behind_the_gate_leaves_no_window(mode):
    """The gate passes (capacity is there) and the install then dies on
    an exhausted PLMN pool: the window the request held goes with it."""
    sim, orch = build_bed(plmn_pool_size=2)
    for _ in range(2):
        assert offer(orch, throughput_mbps=5.0)[1].admitted
    request = make_request(throughput_mbps=5.0)
    if mode == "online":
        decision = orch.submit(request, quiet_profile(5.0))
    elif mode == "window":
        broker = SliceBroker(orch, window_s=10.0)
        broker.submit(request, quiet_profile(5.0))
        sim.run_until(11.0)
        (decision,) = broker.decisions
    else:
        assert orch.submit_advance(request, quiet_profile(5.0), 30.0).admitted
        assert orch.calendar.has(request.request_id)
        sim.run_until(31.0)
        decision = None
    assert state_of(orch, request) is SliceState.REJECTED
    if decision is not None:
        assert not decision.admitted and "PLMN identities in use" in decision.reason
    assert not orch.calendar.has(request.request_id)
    assert len(orch.calendar.bookings()) == 2


_THROUGHPUT = st.sampled_from([5.0, 8.0, 20.0, 40.0])
_DURATION = st.sampled_from([300.0, 1_200.0, 7_200.0])
_STEP = st.one_of(
    st.tuples(st.just("advance"), _THROUGHPUT, _DURATION, st.sampled_from([60.0, 300.0, 900.0])),
    st.tuples(st.just("online"), _THROUGHPUT, _DURATION),
    st.tuples(st.just("window"), st.lists(_THROUGHPUT, min_size=1, max_size=5), _DURATION),
    st.tuples(st.just("wait"), st.sampled_from([20.0, 130.0, 400.0, 1_000.0])),
)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=14), plmns=st.sampled_from([4, 12]))
@example(
    steps=[("advance", 40.0, 7_200.0, 900.0)] * 2 + [("window", [8.0] * 3, 7_200.0)],
    plmns=12,
)
def test_the_calendar_never_promises_more_than_the_fleet_holds(steps, plmns):
    """Advance bookings, online submits and broker windows interleaved
    (no rescales: a tenant grow is not calendar-gated): after every
    step the calendar's peak over the whole horizon fits its capacity,
    every window on it belongs to a live slice or a pending booking, and
    no refused request left one behind."""
    sim, orch = build_bed(plmn_pool_size=plmns)
    broker = SliceBroker(orch, window_s=10.0)
    offered = []
    for step in steps:
        if step[0] == "advance":
            _, mbps, duration, start_in = step
            request = make_request(throughput_mbps=mbps, duration_s=duration)
            orch.submit_advance(request, quiet_profile(mbps), sim.now + start_in)
            offered.append(request)
        elif step[0] == "online":
            _, mbps, duration = step
            offered.append(offer(orch, throughput_mbps=mbps, duration_s=duration)[0])
        elif step[0] == "window":
            _, window, duration = step
            for mbps in window:
                request = make_request(throughput_mbps=mbps, duration_s=duration)
                broker.submit(request, quiet_profile(mbps))
                offered.append(request)
            sim.run_until(sim.now + 10.5)
        else:
            sim.run_until(sim.now + step[1])
        peak = orch.calendar.peak_usage(0.0, FOREVER)
        assert peak.fits_within(orch.calendar.capacity), peak
        holders = {s.request.request_id for s in orch.live_slices()}
        holders |= set(orch.pending_bookings())
        assert {b.booking_id for b in orch.calendar.bookings()} <= holders
        for request in offered:
            if (
                orch.has_slice(slice_id_for(request.request_id))
                and state_of(orch, request) is SliceState.REJECTED
            ):
                assert not orch.calendar.has(request.request_id)


# ----------------------------------------------------------------------
# Size and place: once, as counts
# ----------------------------------------------------------------------
SPIED = {
    "decide": (NoOverbooking, "decide"),
    "decide_window": (OverbookingPolicy, "decide_window"),
    "demand_vector": (MultiDomainAllocator, "demand_vector"),
    "best_enb_for": (RanController, "best_enb_for"),
    "candidate_datacenters": (MultiDomainAllocator, "candidate_datacenters"),
}


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Calls from here on into the sizing and placement primitives."""
    counts: Counter = Counter()
    for name, (owner, attribute) in SPIED.items():
        plain = getattr(owner, attribute)

        def spy(*args, _plain=plain, _name=name, **kwargs):
            counts[_name] += 1
            return _plain(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, spy)
    return counts


def once_each(n: int = 1, **overrides) -> dict:
    expected = {
        "decide": n, "demand_vector": n, "best_enb_for": n, "candidate_datacenters": n,
    }
    expected.update(overrides)
    return {name: count for name, count in expected.items() if count}


def test_a_sync_create_sizes_and_places_once(calls):
    _, orch = build_bed()
    assert offer(orch)[1].admitted
    assert dict(calls) == once_each()


def test_a_window_sizes_through_one_policy_call_and_places_each_winner_once(calls):
    sim, orch = build_bed()
    broker = SliceBroker(orch, window_s=10.0)
    for _ in range(8):
        broker.submit(make_request(throughput_mbps=5.0), quiet_profile(5.0))
    sim.run_until(11.0)
    assert [d.admitted for d in broker.decisions] == [True] * 8
    # The eight ``decide`` calls are ``decide_window``'s default loop.
    assert dict(calls) == once_each(8, decide_window=1)


def test_a_what_if_sizes_and_probes_once(calls):
    _, orch = build_bed()
    assert orch.what_if(make_request())["would_admit"]
    assert dict(calls) == once_each()


def test_an_advance_booking_sizes_when_promised_and_when_it_fires(calls):
    sim, orch = build_bed()
    request = make_request()
    assert orch.submit_advance(request, quiet_profile(20.0), 30.0).admitted
    assert dict(calls) == {"decide": 1, "demand_vector": 1}
    sim.run_until(31.0)
    assert state_of(orch, request) is SliceState.DEPLOYING
    assert dict(calls) == once_each(decide=2, demand_vector=2)


# ----------------------------------------------------------------------
# Place: probe ≡ plan ≡ install
# ----------------------------------------------------------------------
_ASK = st.tuples(
    st.sampled_from([2.0, 5.0, 12.0, 20.0, 33.0, 40.0, 60.0]),  # Mb/s
    st.sampled_from([6.0, 8.0, 12.0, 50.0]),  # ms
)


@settings(max_examples=60, deadline=None)
@given(
    load=st.lists(_ASK, max_size=14),
    ask=_ASK,
    factor=st.sampled_from([1.0, 1.5, 2.5]),
    plmns=st.sampled_from([3, 12]),
)
def test_probe_plan_and_install_agree(load, ask, factor, plmns):
    """On a randomly loaded fleet: ``feasible`` says yes exactly when
    the plan has an attempt, what-if names the plan's cell and its DCs
    in order, and a twin fleet's ``submit`` does what what-if said."""
    twins = []
    for _ in range(2):
        _, orch = build_bed(FixedOverbooking(factor), plmn_pool_size=plmns)
        for mbps, latency in load:
            offer(orch, throughput_mbps=mbps, max_latency_ms=latency)
        twins.append(orch)
    probed, installed = twins
    mbps, latency = ask
    request = make_request(throughput_mbps=mbps, max_latency_ms=latency)
    report = probed.what_if(request)
    allocator = probed.allocator
    fraction = report["effective_fraction"]
    try:
        attempts = allocator.install_attempts(
            NetworkSlice(request),
            allocator.size(request, fraction),
            probed.registry.domains(),
        )
    except AllocationError:
        attempts = []
    assert allocator.feasible(request, fraction) == bool(attempts)
    assert report["cloud"]["candidate_dcs"] == [
        specs["cloud"].attributes["dc_id"] for specs in attempts
    ]
    assert report["cloud"]["feasible"] == report["transport"]["feasible"] == bool(attempts)
    if attempts:
        assert {specs["ran"].attributes["enb_id"] for specs in attempts} == {
            report["ran"]["enb"]
        }
    _, decision = offer(installed, throughput_mbps=mbps, max_latency_ms=latency)
    assert decision.admitted == report["would_admit"], (decision.reason, report)


# ----------------------------------------------------------------------
# One of each, as the source reads
# ----------------------------------------------------------------------
ORCHESTRATOR = source_of("core/orchestrator.py")
ALLOCATION = source_of("core/allocation.py")


def test_the_calendar_gate_is_one_function():
    hits = src_lines_matching(r"calendar\.fits\(")
    assert hits == src_lines_matching(r"calendar\.fits\(", "core/orchestrator.py")
    assert enclosing_functions(ORCHESTRATOR, r"calendar\.fits\(") == ["calendar_gate"]
    literal = GATE_REFUSAL.replace(" ", r"\s")
    assert len(src_lines_matching(literal)) == 1
    assert enclosing_functions(ORCHESTRATOR, literal) == ["calendar_gate"]
    assert enclosing_functions(ORCHESTRATOR, BOOKING_REFUSAL) == ["calendar_gate"]


def test_the_promise_window_is_one_formula():
    formula = r"duration_s\s*\+.*deploy_time_s"
    assert src_lines_matching(formula) == src_lines_matching(formula, "core/orchestrator.py")
    assert enclosing_functions(ORCHESTRATOR, formula) == ["_promise_end"]


def test_placement_is_planned_on_the_allocator_only():
    probes = r"\b(best_enb_for|candidate_datacenters|transport_budget_ms)\("
    assert src_lines_matching(probes, "core/orchestrator.py", "core/broker.py") == []
    assert enclosing_functions(ORCHESTRATOR, r"\bDomainSpec\(") == []
    assert enclosing_functions(ALLOCATION, r"\bbest_enb_for\(") == ["probe"]
    assert enclosing_functions(ALLOCATION, r"\bDomainSpec\(") == ["install_attempts"]
    # Install specs are built by the allocator only; a resize re-dimensions,
    # in one function, the spec each driver already holds.
    builders = src_lines_matching(r"\bDomainSpec\(")
    assert {hit.split(":")[0] for hit in builders} <= {
        "core/allocation.py", "drivers/base.py", "drivers/transaction.py",
    }
    assert enclosing_functions(source_of("drivers/transaction.py"), r"\bDomainSpec\(") == [
        "resize_everywhere"
    ]


def test_the_broker_reaches_the_fleet_through_the_orchestrators_verbs():
    assert src_lines_matching(
        r"orchestrator\.(config|calendar|allocator)\b", "core/broker.py"
    ) == []
