"""Admission-control engine.

"Admit network slice requests such that the overall system revenues are
maximized" (paper §1, following the 5G slice-broker model of Samdanis et
al. — ref [3]).  Admission reasons over an abstract per-request
:class:`ResourceVector` (PRBs on the RAN, Mb/s on transport, vCPUs in
the cloud) against the infrastructure's free-capacity vector, so the
same policies serve both the live orchestrator and the offline
benchmark harness.

Two operating modes:

- **online** — :meth:`AdmissionPolicy.decide` on each arrival
  (what the live demo does);
- **batch** — :meth:`AdmissionPolicy.decide_batch` over a decision
  window, which is where revenue maximization diverges from
  first-come-first-served (the D1 experiment).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.slices import SliceRequest


class AdmissionError(RuntimeError):
    """Raised on malformed admission inputs."""


@dataclass(frozen=True)
class ResourceVector:
    """Multi-domain resource footprint (all components ≥ 0).

    Attributes:
        prbs: Radio resource blocks.
        mbps: Transport bandwidth.
        vcpus: Compute cores.
    """

    prbs: float = 0.0
    mbps: float = 0.0
    vcpus: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("prbs", self.prbs), ("mbps", self.mbps), ("vcpus", self.vcpus)):
            if value < 0:
                raise AdmissionError(f"{name} cannot be negative, got {value}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.prbs + other.prbs, self.mbps + other.mbps, self.vcpus + other.vcpus
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            max(0.0, self.prbs - other.prbs),
            max(0.0, self.mbps - other.mbps),
            max(0.0, self.vcpus - other.vcpus),
        )

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """Component-wise ≤ with a small tolerance."""
        return (
            self.prbs <= capacity.prbs + 1e-9
            and self.mbps <= capacity.mbps + 1e-9
            and self.vcpus <= capacity.vcpus + 1e-9
        )

    def max_fraction_of(self, capacity: "ResourceVector") -> float:
        """Largest per-dimension usage fraction (∞ if a zero-capacity
        dimension is demanded) — the scalarization the knapsack uses."""
        fractions = []
        for demand, cap in (
            (self.prbs, capacity.prbs),
            (self.mbps, capacity.mbps),
            (self.vcpus, capacity.vcpus),
        ):
            if demand <= 0:
                continue
            if cap <= 0:
                return float("inf")
            fractions.append(demand / cap)
        return max(fractions) if fractions else 0.0


@dataclass
class AdmissionDecision:
    """Outcome of one admission evaluation.

    Attributes:
        request_id: The evaluated request.
        admitted: Verdict.
        reason: Human-readable justification.
        expected_value: Revenue the decision expects to realize.
        slice_id: Identity of the slice record the orchestrator created
            for this request (admitted *and* rejected slices get one;
            None for pure policy-layer decisions that never reached the
            orchestrator, e.g. advance bookings not yet installed).
    """

    request_id: str
    admitted: bool
    reason: str
    expected_value: float = 0.0
    slice_id: Optional[str] = None


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission ceilings (``None`` means unlimited).

    A quota counts slices that currently hold (or are about to hold)
    resources — live slices, pending advance bookings, queued broker
    requests — against ``max_active_slices``, and their summed SLA
    throughput against ``max_aggregate_mbps``.
    """

    max_active_slices: Optional[int] = None
    max_aggregate_mbps: Optional[float] = None


#: Estimates the expected penalty cost of admitting a request; the
#: revenue-max policies subtract it from the price.  Signature:
#: ``(request) -> expected penalty``.
PenaltyEstimator = Callable[[SliceRequest], float]


class AdmissionPolicy(ABC):
    """Base class for admission policies."""

    name = "abstract"

    @abstractmethod
    def decide(
        self,
        request: SliceRequest,
        demand: ResourceVector,
        free: ResourceVector,
    ) -> AdmissionDecision:
        """Online decision for one arriving request."""

    def decide_batch(
        self,
        candidates: Sequence[Tuple[SliceRequest, ResourceVector]],
        capacity: ResourceVector,
    ) -> List[AdmissionDecision]:
        """Batch decision over a window (default: online FCFS sweep)."""
        decisions: List[AdmissionDecision] = []
        free = capacity
        for request, demand in candidates:
            decision = self.decide(request, demand, free)
            decisions.append(decision)
            if decision.admitted:
                free = free - demand
        return decisions


class FcfsPolicy(AdmissionPolicy):
    """Accept any request whose demand fits the free capacity.

    The revenue-blind baseline: the order of arrival fully determines
    who gets in.
    """

    name = "fcfs"

    def decide(
        self,
        request: SliceRequest,
        demand: ResourceVector,
        free: ResourceVector,
    ) -> AdmissionDecision:
        if demand.fits_within(free):
            return AdmissionDecision(
                request_id=request.request_id,
                admitted=True,
                reason="fits free capacity",
                expected_value=request.price,
            )
        return AdmissionDecision(
            request_id=request.request_id,
            admitted=False,
            reason="insufficient capacity",
        )


class GreedyPricePolicy(AdmissionPolicy):
    """Batch: admit in order of value density (value per bottleneck unit).

    Online it behaves like FCFS but refuses requests whose expected value
    (price minus estimated penalties) is non-positive.
    """

    name = "greedy"

    def __init__(self, penalty_estimator: Optional[PenaltyEstimator] = None) -> None:
        self.penalty_estimator = penalty_estimator or (lambda request: 0.0)

    def _value(self, request: SliceRequest) -> float:
        return request.price - self.penalty_estimator(request)

    def decide(
        self,
        request: SliceRequest,
        demand: ResourceVector,
        free: ResourceVector,
    ) -> AdmissionDecision:
        value = self._value(request)
        if value <= 0:
            return AdmissionDecision(
                request_id=request.request_id,
                admitted=False,
                reason="non-positive expected value",
                expected_value=value,
            )
        if not demand.fits_within(free):
            return AdmissionDecision(
                request_id=request.request_id,
                admitted=False,
                reason="insufficient capacity",
                expected_value=value,
            )
        return AdmissionDecision(
            request_id=request.request_id,
            admitted=True,
            reason="positive value and fits",
            expected_value=value,
        )

    def decide_batch(
        self,
        candidates: Sequence[Tuple[SliceRequest, ResourceVector]],
        capacity: ResourceVector,
    ) -> List[AdmissionDecision]:
        order = sorted(
            range(len(candidates)),
            key=lambda i: (
                -self._value(candidates[i][0])
                / max(candidates[i][1].max_fraction_of(capacity), 1e-9)
            ),
        )
        decisions: List[Optional[AdmissionDecision]] = [None] * len(candidates)
        free = capacity
        for i in order:
            request, demand = candidates[i]
            decision = self.decide(request, demand, free)
            decisions[i] = decision
            if decision.admitted:
                free = free - demand
        return [d for d in decisions if d is not None]


class KnapsackPolicy(AdmissionPolicy):
    """Batch revenue maximization by dynamic-programming knapsack.

    Each candidate is scalarized to its bottleneck fraction of capacity
    (its largest per-dimension share) and discretized into
    ``resolution`` units; the DP maximizes total expected value subject
    to the unit budget.  Because per-dimension usage never exceeds the
    bottleneck fraction, any unit-feasible selection is vector-feasible
    — the DP is conservative but sound.  A greedy repair pass then fills
    the vector capacity the scalarization left unused, and the final
    answer is whichever of {DP + fill, pure greedy} earns more — so this
    policy dominates :class:`GreedyPricePolicy` by construction.

    Online, it falls back to greedy value-positive FCFS (a knapsack over
    one item is just that).
    """

    name = "knapsack"

    def __init__(
        self,
        resolution: int = 200,
        penalty_estimator: Optional[PenaltyEstimator] = None,
    ) -> None:
        if resolution < 10:
            raise AdmissionError(f"resolution must be ≥ 10, got {resolution}")
        self.resolution = int(resolution)
        self.penalty_estimator = penalty_estimator or (lambda request: 0.0)
        self._greedy = GreedyPricePolicy(penalty_estimator=self.penalty_estimator)

    def decide(
        self,
        request: SliceRequest,
        demand: ResourceVector,
        free: ResourceVector,
    ) -> AdmissionDecision:
        return self._greedy.decide(request, demand, free)

    def _select(self, weights: List[int], values: List[float]) -> Set[int]:
        """The candidates the 0/1 DP over the unit budget picks: one array
        step per item, each level b ≥ w reading the row as it stood before
        the item (as a descending scalar loop does), taking a strict gain."""
        budget = self.resolution
        dp = np.full(budget + 1, -np.inf)
        dp[0] = 0.0
        take = np.zeros((len(weights), budget + 1), dtype=bool)
        for i, (w, v) in enumerate(zip(weights, values)):
            if w > budget or v <= 0:
                continue
            cand = dp[: budget + 1 - w] + v
            better = cand > dp[w:]
            take[i, w:] = better
            dp[w:] = np.where(better, cand, dp[w:])
        # Backtrack from the best budget level (the first, on a tie).
        chosen = set()
        b = int(np.argmax(dp))
        for i in range(len(weights) - 1, -1, -1):
            if take[i, b]:
                chosen.add(i)
                b -= weights[i]
        return chosen

    def decide_batch(
        self,
        candidates: Sequence[Tuple[SliceRequest, ResourceVector]],
        capacity: ResourceVector,
    ) -> List[AdmissionDecision]:
        n = len(candidates)
        values = [
            candidates[i][0].price - self.penalty_estimator(candidates[i][0])
            for i in range(n)
        ]
        weights: List[int] = []
        for _, demand in candidates:
            fraction = demand.max_fraction_of(capacity)
            if math.isinf(fraction) or fraction > 1.0:
                weights.append(self.resolution + 1)  # can never fit
            else:
                weights.append(max(1, math.ceil(fraction * self.resolution)))
        chosen = self._select(weights, values)
        # Repair pass: the scalarization (Σ max-fractions ≤ 1) is
        # conservative, so vector capacity usually remains after the DP
        # selection.  Greedily fill it with the remaining positive-value
        # candidates in value-density order.
        free = capacity
        admitted: set = set()
        for i, (request, demand) in enumerate(candidates):
            if i in chosen and demand.fits_within(free):
                free = free - demand
                admitted.add(i)
        fill_order = sorted(
            (i for i in range(n) if i not in admitted and values[i] > 0),
            key=lambda i: -values[i]
            / max(candidates[i][1].max_fraction_of(capacity), 1e-9),
        )
        for i in fill_order:
            demand = candidates[i][1]
            if demand.fits_within(free):
                free = free - demand
                admitted.add(i)
        # Keep whichever of {DP+fill, pure greedy} earns more, so the
        # knapsack policy dominates greedy by construction.
        greedy_decisions = self._greedy.decide_batch(candidates, capacity)
        greedy_value = sum(
            values[i] for i, d in enumerate(greedy_decisions) if d.admitted
        )
        dp_value = sum(values[i] for i in admitted)
        if greedy_value > dp_value:
            return greedy_decisions
        decisions: List[AdmissionDecision] = []
        for i, (request, demand) in enumerate(candidates):
            if i in admitted:
                decisions.append(
                    AdmissionDecision(
                        request_id=request.request_id,
                        admitted=True,
                        reason="knapsack-selected",
                        expected_value=values[i],
                    )
                )
            else:
                decisions.append(
                    AdmissionDecision(
                        request_id=request.request_id,
                        admitted=False,
                        reason="not selected by knapsack",
                        expected_value=values[i],
                    )
                )
        return decisions


__all__ = [
    "AdmissionDecision",
    "AdmissionError",
    "AdmissionPolicy",
    "FcfsPolicy",
    "GreedyPricePolicy",
    "KnapsackPolicy",
    "PenaltyEstimator",
    "ResourceVector",
    "TenantQuota",
]
