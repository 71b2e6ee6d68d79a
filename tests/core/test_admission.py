"""Tests for the admission-control engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.admission import (
    AdmissionError,
    FcfsPolicy,
    GreedyPricePolicy,
    KnapsackPolicy,
    ResourceVector,
)
from tests.conftest import make_request


class TestResourceVector:
    def test_add(self):
        v = ResourceVector(1, 2, 3) + ResourceVector(4, 5, 6)
        assert (v.prbs, v.mbps, v.vcpus) == (5, 7, 9)

    def test_sub_clamps_at_zero(self):
        v = ResourceVector(1, 2, 3) - ResourceVector(4, 1, 3)
        assert (v.prbs, v.mbps, v.vcpus) == (0, 1, 0)

    def test_negative_component_rejected(self):
        with pytest.raises(AdmissionError):
            ResourceVector(prbs=-1)

    def test_fits_within(self):
        cap = ResourceVector(10, 10, 10)
        assert ResourceVector(10, 10, 10).fits_within(cap)
        assert not ResourceVector(11, 1, 1).fits_within(cap)
        assert not ResourceVector(1, 1, 10.5).fits_within(cap)

    def test_max_fraction(self):
        cap = ResourceVector(100, 200, 10)
        demand = ResourceVector(50, 20, 5)
        assert demand.max_fraction_of(cap) == pytest.approx(0.5)

    def test_max_fraction_infinite_on_zero_capacity(self):
        assert ResourceVector(1, 0, 0).max_fraction_of(ResourceVector(0, 5, 5)) == float("inf")

    def test_max_fraction_zero_demand(self):
        assert ResourceVector().max_fraction_of(ResourceVector(1, 1, 1)) == 0.0

class TestFcfs:
    def test_accepts_when_fits(self):
        decision = FcfsPolicy().decide(
            make_request(), ResourceVector(5, 5, 5), ResourceVector(10, 10, 10)
        )
        assert decision.admitted

    def test_rejects_when_overflow(self):
        decision = FcfsPolicy().decide(
            make_request(), ResourceVector(11, 5, 5), ResourceVector(10, 10, 10)
        )
        assert not decision.admitted
        assert "capacity" in decision.reason

    def test_batch_is_order_dependent(self):
        big = (make_request(price=10.0), ResourceVector(8, 8, 8))
        small = (make_request(price=100.0), ResourceVector(5, 5, 5))
        capacity = ResourceVector(10, 10, 10)
        decisions = FcfsPolicy().decide_batch([big, small], capacity)
        assert decisions[0].admitted and not decisions[1].admitted


class TestGreedy:
    def test_batch_prefers_value_dense(self):
        cheap_big = (make_request(price=10.0), ResourceVector(8, 8, 8))
        rich_small = (make_request(price=100.0), ResourceVector(5, 5, 5))
        capacity = ResourceVector(10, 10, 10)
        decisions = GreedyPricePolicy().decide_batch([cheap_big, rich_small], capacity)
        assert not decisions[0].admitted and decisions[1].admitted

    def test_rejects_non_positive_value(self):
        estimator = lambda request: request.price + 1.0
        policy = GreedyPricePolicy(penalty_estimator=estimator)
        decision = policy.decide(
            make_request(price=5.0), ResourceVector(1, 1, 1), ResourceVector(10, 10, 10)
        )
        assert not decision.admitted
        assert "value" in decision.reason

    def test_batch_preserves_candidate_order_in_output(self):
        candidates = [
            (make_request(price=float(p)), ResourceVector(1, 1, 1)) for p in (1, 2, 3)
        ]
        decisions = GreedyPricePolicy().decide_batch(candidates, ResourceVector(10, 10, 10))
        assert [d.request_id for d in decisions] == [
            c[0].request_id for c in candidates
        ]


class TestKnapsack:
    def test_beats_fcfs_on_adversarial_order(self):
        # FCFS takes the big cheap one first; knapsack should skip it.
        candidates = [
            (make_request(price=10.0), ResourceVector(90, 0, 0)),
            (make_request(price=60.0), ResourceVector(50, 0, 0)),
            (make_request(price=60.0), ResourceVector(50, 0, 0)),
        ]
        capacity = ResourceVector(100, 100, 100)
        knap = KnapsackPolicy().decide_batch(candidates, capacity)
        fcfs = FcfsPolicy().decide_batch(candidates, capacity)
        knap_value = sum(
            c[0].price for c, d in zip(candidates, knap) if d.admitted
        )
        fcfs_value = sum(
            c[0].price for c, d in zip(candidates, fcfs) if d.admitted
        )
        assert knap_value == pytest.approx(120.0)
        assert knap_value > fcfs_value

    def test_never_selects_infeasible(self):
        candidates = [(make_request(price=1000.0), ResourceVector(200, 0, 0))]
        decisions = KnapsackPolicy().decide_batch(candidates, ResourceVector(100, 100, 100))
        assert not decisions[0].admitted

    def test_selected_set_is_vector_feasible(self):
        rng = np.random.default_rng(0)
        candidates = [
            (
                make_request(price=float(rng.uniform(10, 100))),
                ResourceVector(
                    float(rng.uniform(1, 40)),
                    float(rng.uniform(1, 40)),
                    float(rng.uniform(1, 10)),
                ),
            )
            for _ in range(20)
        ]
        capacity = ResourceVector(100, 100, 32)
        decisions = KnapsackPolicy().decide_batch(candidates, capacity)
        total = ResourceVector()
        for (request, demand), decision in zip(candidates, decisions):
            if decision.admitted:
                total = total + demand
        assert total.fits_within(capacity)

    def test_low_resolution_rejected(self):
        with pytest.raises(AdmissionError):
            KnapsackPolicy(resolution=5)

    @settings(max_examples=30, deadline=None)
    @given(
        prices=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_knapsack_value_at_least_greedy(self, prices, seed):
        """Knapsack (optimal under the scalarization) ≥ greedy on the
        same scalarized instance when all demands stress one dimension."""
        rng = np.random.default_rng(seed)
        candidates = [
            (make_request(price=p), ResourceVector(prbs=float(rng.integers(1, 60))))
            for p in prices
        ]
        capacity = ResourceVector(prbs=100.0, mbps=1e9, vcpus=1e9)
        knap = KnapsackPolicy(resolution=100).decide_batch(candidates, capacity)
        greedy = GreedyPricePolicy().decide_batch(candidates, capacity)
        knap_value = sum(c[0].price for c, d in zip(candidates, knap) if d.admitted)
        greedy_value = sum(c[0].price for c, d in zip(candidates, greedy) if d.admitted)
        # Dominance by construction: knapsack keeps the better of
        # {DP + greedy fill, pure greedy}.
        assert knap_value >= greedy_value - 1e-6


class ScalarKnapsack(KnapsackPolicy):
    """The DP as the descending scalar double loop it used to be: the
    oracle the array step must match bit for bit."""

    def _select(self, weights, values):
        budget = self.resolution
        NEG = float("-inf")
        dp = [0.0] + [NEG] * budget
        take = [[False] * (budget + 1) for _ in weights]
        for i, (w, v) in enumerate(zip(weights, values)):
            if w > budget or v <= 0:
                continue
            for b in range(budget, w - 1, -1):
                if dp[b - w] != NEG and dp[b - w] + v > dp[b]:
                    dp[b] = dp[b - w] + v
                    take[i][b] = True
        b = max(range(budget + 1), key=lambda b: dp[b])
        chosen = set()
        for i in range(len(weights) - 1, -1, -1):
            if take[i][b]:
                chosen.add(i)
                b -= weights[i]
        return chosen


#: One candidate: a price (often one of a few, so values tie), a
#: demand that may exceed the capacity in any dimension (infeasible).
_candidate = st.tuples(
    st.sampled_from([5.0, 12.5, 40.0, 99.0]) | st.floats(min_value=0.5, max_value=500.0),
    st.floats(min_value=0.0, max_value=150.0),
    st.floats(min_value=0.0, max_value=150.0),
    st.floats(min_value=0.0, max_value=40.0),
)


@settings(max_examples=150, deadline=None)
@given(
    window=st.lists(_candidate, min_size=1, max_size=64),
    penalty=st.sampled_from([0.0, 10.0, 60.0]),
    resolution=st.sampled_from([10, 57, 200]),
    capacity=st.sampled_from([ResourceVector(100, 100, 32), ResourceVector(100, 0, 32)]),
)
def test_array_knapsack_decides_as_the_scalar_loop(window, penalty, resolution, capacity):
    """Repeated prices tie in the DP, a penalty makes some values
    non-positive, a zero capacity dimension makes a demand infinitely
    heavy: the window's decisions are the same to the last bit."""
    candidates = [
        (make_request(price=price), ResourceVector(prbs, mbps, vcpus))
        for price, prbs, mbps, vcpus in window
    ]
    policies = [
        cls(resolution=resolution, penalty_estimator=lambda request: penalty)
        for cls in (KnapsackPolicy, ScalarKnapsack)
    ]
    array, scalar = (
        [
            (d.request_id, d.admitted, d.reason, d.expected_value)
            for d in policy.decide_batch(candidates, capacity)
        ]
        for policy in policies
    )
    assert array == scalar



@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=60),
            st.sampled_from([-1.0, 0.0, 7.0, 7.5, 30.0]) | st.floats(-50.0, 500.0),
        ),
        max_size=64,
    )
)
def test_array_dp_selects_as_the_scalar_loop(items):
    """The DP alone, where greedy cannot mask it: the same chosen set
    for any weights (some over the 50-unit budget) and tied values."""
    weights = [w for w, _ in items]
    values = [v for _, v in items]
    assert KnapsackPolicy(resolution=50)._select(weights, values) == ScalarKnapsack(
        resolution=50
    )._select(weights, values)
