"""Cross-module property-based invariants.

These tests drive whole subsystems with random operation sequences and
assert the system-level invariants DESIGN.md promises:

- resource conservation in every domain (nothing leaks, nothing
  overcommits physically),
- end-to-end allocations never violate the latency SLA,
- the orchestrator's ledger arithmetic is self-consistent,
- random orchestrator workloads leave every slice in a legal state.
"""

from __future__ import annotations

import os
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.admission import FcfsPolicy, GreedyPricePolicy, KnapsackPolicy
from repro.core.orchestrator import Orchestrator
from repro.core.overbooking import FixedOverbooking, NoOverbooking
from repro.core.slices import SliceState
from repro.experiments.testbed import build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import free_prbs, make_request
from tests.store.durable_reference import check_durable

#: The nightly CI flake-hunt multiplies every property suite's example
#: budget (HYPOTHESIS_EXAMPLE_MULTIPLIER=5) without touching the fast
#: per-push defaults.
EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=15 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_requests=st.integers(min_value=1, max_value=15),
    factor=st.floats(min_value=1.0, max_value=3.0),
)
def test_orchestrator_never_overcommits_physical_resources(seed, n_requests, factor):
    """After any random workload, every domain's physical budget holds."""
    rng = np.random.default_rng(seed)
    testbed = build_testbed()
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        overbooking=FixedOverbooking(factor) if factor > 1.001 else NoOverbooking(),
        streams=RandomStreams(seed=seed),
    )
    orch.start()
    for i in range(n_requests):
        request = make_request(
            throughput_mbps=float(rng.uniform(2.0, 45.0)),
            max_latency_ms=float(rng.uniform(6.0, 100.0)),
            duration_s=float(rng.uniform(120.0, 2_000.0)),
            price=float(rng.uniform(1.0, 200.0)),
        )
        profile = ConstantProfile(
            request.sla.throughput_mbps, level=float(rng.uniform(0.1, 1.0))
        )
        orch.submit(request, profile)
        sim.run_until(sim.now + float(rng.uniform(0.0, 400.0)))
    # RAN: effective PRBs within budget on every cell.
    for enb in testbed.ran.enbs():
        enb.grid.check_invariants()
    # Transport: effective within capacity on every link.
    for link in testbed.transport.topology.links():
        assert link.effective_reserved_mbps <= link.capacity_mbps + 1e-6
    # Cloud: node capacities hold.
    for dc in testbed.cloud.datacenters():
        for node in dc.nodes():
            node.check_invariants()
    # Ledger arithmetic.
    ledger = orch.ledger
    assert ledger.net_revenue == pytest.approx(
        ledger.gross_revenue - ledger.total_penalties
    )
    assert ledger.admissions + ledger.rejections == n_requests
    # Every slice is in a legal, explainable state.
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
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_active_allocations_respect_latency_sla(seed):
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
    for _ in range(8):
        request = make_request(
            throughput_mbps=float(rng.uniform(2.0, 30.0)),
            max_latency_ms=float(rng.uniform(6.0, 120.0)),
        )
        orch.submit(request, ConstantProfile(request.sla.throughput_mbps, level=0.5))
    sim.run_until(60.0)
    for network_slice in orch.active_slices():
        allocation = network_slice.allocation
        assert allocation is not None
        assert (
            allocation.total_latency_ms
            <= network_slice.request.sla.max_latency_ms + 1e-9
        )


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=12),
)
def test_expiry_returns_every_resource(seed, n):
    """Admit a batch, let everything expire: the testbed must be back to
    its pristine free state."""
    rng = np.random.default_rng(seed)
    testbed = build_testbed()
    pristine_prbs = free_prbs(testbed.ran)
    pristine_vcpus = sum(dc.free_vcpus for dc in testbed.cloud.datacenters())
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=seed),
    )
    orch.start()
    for _ in range(n):
        request = make_request(
            throughput_mbps=float(rng.uniform(2.0, 30.0)),
            duration_s=float(rng.uniform(60.0, 500.0)),
        )
        orch.submit(request, ConstantProfile(request.sla.throughput_mbps, level=0.4))
    sim.run_until(2_000.0)  # all durations elapsed
    assert free_prbs(testbed.ran) == pristine_prbs
    assert sum(dc.free_vcpus for dc in testbed.cloud.datacenters()) == pristine_vcpus
    for link in testbed.transport.topology.links():
        assert link.effective_reserved_mbps == pytest.approx(0.0)
    assert testbed.plmn_pool.available == testbed.plmn_pool.capacity


@settings(max_examples=20 * EXAMPLE_MULTIPLIER, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=20),
)
def test_batch_policies_agree_on_feasibility(seed, n):
    """Whatever the policy, an admitted batch must fit the capacity
    vector — checked across FCFS, greedy and knapsack on one instance."""
    from repro.core.admission import ResourceVector

    rng = np.random.default_rng(seed)
    candidates = [
        (
            make_request(price=float(rng.uniform(1, 100))),
            ResourceVector(
                prbs=float(rng.uniform(1, 50)),
                mbps=float(rng.uniform(1, 50)),
                vcpus=float(rng.integers(1, 8)),
            ),
        )
        for _ in range(n)
    ]
    capacity = ResourceVector(prbs=100.0, mbps=120.0, vcpus=24.0)
    for policy in (FcfsPolicy(), GreedyPricePolicy(), KnapsackPolicy(resolution=50)):
        decisions = policy.decide_batch(candidates, capacity)
        total = ResourceVector()
        for (request, demand), decision in zip(candidates, decisions):
            assert decision.request_id == request.request_id
            if decision.admitted:
                total = total + demand
        assert total.fits_within(capacity)
