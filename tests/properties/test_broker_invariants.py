"""Property-based invariants for the batch broker and advance bookings."""

from __future__ import annotations

import os
import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.admission import FcfsPolicy, KnapsackPolicy
from repro.core.broker import SliceBroker
from repro.core.orchestrator import Orchestrator
from repro.core.slices import SliceState
from repro.experiments.testbed import build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request
from tests.store.durable_reference import check_durable

#: The nightly CI flake-hunt multiplies every property suite's example
#: budget (HYPOTHESIS_EXAMPLE_MULTIPLIER=5) without touching the fast
#: per-push defaults.
EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=12 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    n_requests=st.integers(min_value=1, max_value=12),
    window_s=st.floats(min_value=10.0, max_value=600.0),
    use_knapsack=st.booleans(),
)
def test_broker_never_overcommits_and_accounts_everything(
    seed, n_requests, window_s, use_knapsack
):
    rng = np.random.default_rng(seed)
    testbed = build_testbed()
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=seed),
    )
    orch.start()
    broker = SliceBroker(
        orch,
        window_s=window_s,
        policy=KnapsackPolicy() if use_knapsack else FcfsPolicy(),
    )
    for _ in range(n_requests):
        request = make_request(
            throughput_mbps=float(rng.uniform(2.0, 45.0)),
            duration_s=float(rng.uniform(300.0, 3_000.0)),
            price=float(rng.uniform(1.0, 200.0)),
        )
        broker.submit(
            request,
            ConstantProfile(request.sla.throughput_mbps, level=float(rng.uniform(0.2, 0.9))),
        )
    sim.run_until(window_s + 60.0)
    # Every queued request got exactly one decision.
    assert len(broker.decisions) == n_requests
    ledger = orch.ledger
    assert ledger.admissions + ledger.rejections == n_requests
    # Physical budgets hold everywhere.
    for enb in testbed.ran.enbs():
        enb.grid.check_invariants()
    for link in testbed.transport.topology.links():
        assert link.effective_reserved_mbps <= link.capacity_mbps + 1e-6
    for dc in testbed.cloud.datacenters():
        for node in dc.nodes():
            node.check_invariants()
    # No slice stuck in a transient state after the window settled.
    for network_slice in map(orch.slice, orch.slice_index.view()):
        assert network_slice.state in (
            SliceState.ACTIVE,
            SliceState.DEPLOYING,
            SliceState.EXPIRED,
            SliceState.REJECTED,
        )
    # The list index, the live-slot table and the durable image agree
    # with a recompute from the slice records and runtimes.
    orch.slice_index.verify()
    orch.fleet.live_slots.verify(orch.fleet)
    check_durable(orch)


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    n_bookings=st.integers(min_value=1, max_value=8),
)
def test_advance_bookings_never_exceed_calendar_capacity(seed, n_bookings):
    """Whatever mix of accepted advance bookings, the calendar's peak
    committed usage never exceeds its capacity vector."""
    rng = np.random.default_rng(seed)
    testbed = build_testbed()
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=seed),
    )
    orch.start()
    latest_end = 0.0
    for _ in range(n_bookings):
        start = float(rng.uniform(100.0, 5_000.0))
        request = make_request(
            throughput_mbps=float(rng.uniform(5.0, 45.0)),
            duration_s=float(rng.uniform(300.0, 5_000.0)),
        )
        orch.submit_advance(
            request,
            ConstantProfile(request.sla.throughput_mbps, level=0.5),
            start_time=start,
        )
        latest_end = max(latest_end, start + request.sla.duration_s)
    peak = orch.calendar.peak_usage(0.0, latest_end + 10.0)
    assert peak.fits_within(orch.calendar.capacity)
