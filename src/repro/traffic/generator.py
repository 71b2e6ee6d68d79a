"""Slice-request arrival process.

Generates the demo's "heterogeneous network slice requests": a marked
Poisson process whose marks are drawn from a weighted mix of vertical
presets.  Used both to drive live simulations (scheduling arrivals on
the event engine) and to pre-materialize request batches for the
admission benchmarks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.slices import ServiceType, SliceRequest
from repro.traffic.patterns import TrafficProfile
from repro.traffic.verticals import VERTICALS, VerticalSpec


@dataclass
class RequestMix:
    """Weighted mixture of verticals for the arrival process.

    Attributes:
        weights: Mapping service type → relative weight (normalized
            internally; weights need not sum to one).
    """

    weights: Dict[ServiceType, float] = field(
        default_factory=lambda: {
            ServiceType.EMBB: 0.35,
            ServiceType.URLLC: 0.15,
            ServiceType.MMTC: 0.2,
            ServiceType.AUTOMOTIVE: 0.15,
            ServiceType.EHEALTH: 0.15,
        }
    )

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("request mix must contain at least one vertical")
        if not all(weight >= 0 for weight in self.weights.values()):
            raise ValueError("request mix weights must be non-negative")
        total = sum(self.weights.values())
        if not 0 < total < np.inf:
            raise ValueError("request mix weights must sum to a positive value")
        self._types = list(self.weights)
        # The cdf ``Generator.choice`` builds from ``p`` per call, built
        # once: one ``random()`` and a bisection draw the same vertical.
        cdf = (np.array([self.weights[t] for t in self._types]) / total).cumsum()
        self._cdf = (cdf / cdf[-1]).tolist()

    def sample_type(self, rng: np.random.Generator) -> ServiceType:
        """Draw one vertical according to the mix weights."""
        return self._types[bisect_right(self._cdf, rng.random())]

    @classmethod
    def single(cls, service_type: ServiceType) -> "RequestMix":
        """A degenerate mix producing only ``service_type`` requests."""
        return cls(weights={service_type: 1.0})


class RequestGenerator:
    """Poisson slice-request generator with per-vertical marks.

    Args:
        rng: Random generator (use a dedicated stream from
            :class:`repro.sim.RandomStreams` for reproducibility).
        arrival_rate_per_s: Mean request arrival rate λ.
        mix: Vertical mixture for request marks.
        tenants: Tenant names cycled through round-robin-with-jitter.
        specs: Override the vertical preset table (tests use this).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        arrival_rate_per_s: float,
        mix: Optional[RequestMix] = None,
        tenants: Optional[List[str]] = None,
        specs: Optional[Dict[ServiceType, VerticalSpec]] = None,
    ) -> None:
        if arrival_rate_per_s <= 0:
            raise ValueError(f"arrival rate must be positive, got {arrival_rate_per_s}")
        self._rng = rng
        self.arrival_rate_per_s = float(arrival_rate_per_s)
        self.mix = mix or RequestMix()
        self.tenants = tenants or [
            "acme-automotive",
            "mediclinic",
            "streamco",
            "sensornet",
            "railops",
        ]
        self._specs = specs or VERTICALS
        self.generated = 0

    def next_interarrival(self) -> float:
        """Draw the next exponential inter-arrival gap in seconds."""
        return float(self._rng.exponential(1.0 / self.arrival_rate_per_s))

    def sample_request(self, arrival_time: float) -> Tuple[SliceRequest, TrafficProfile]:
        """Draw one request and the traffic profile its UEs will follow."""
        service_type = self.mix.sample_type(self._rng)
        spec = self._specs[service_type]
        tenant = self.tenants[int(self._rng.integers(0, len(self.tenants)))]
        request = spec.sample_request(tenant, self._rng, arrival_time=arrival_time)
        profile = spec.sample_profile(request.sla.throughput_mbps, self._rng)
        self.generated += 1
        return request, profile

    def batch(
        self, horizon_s: float, start_time: float = 0.0
    ) -> List[Tuple[SliceRequest, TrafficProfile]]:
        """Materialize every arrival in ``[start_time, start_time + horizon_s)``."""
        out: List[Tuple[SliceRequest, TrafficProfile]] = []
        t = start_time + self.next_interarrival()
        while t < start_time + horizon_s:
            out.append(self.sample_request(t))
            t += self.next_interarrival()
        return out

    def drive(
        self,
        sim,
        horizon_s: float,
        on_request: Callable[[SliceRequest, TrafficProfile], None],
    ) -> int:
        """Schedule all arrivals within ``horizon_s`` onto a simulator.

        Arrivals are pre-materialized (so RNG draws do not interleave
        with other simulation randomness) and scheduled as events.

        Returns:
            Number of arrivals scheduled.
        """
        arrivals = self.batch(horizon_s, start_time=sim.now)

        def make_cb(req: SliceRequest, prof: TrafficProfile) -> Callable[[], None]:
            return lambda: on_request(req, prof)

        for request, profile in arrivals:
            sim.schedule_at(request.arrival_time, make_cb(request, profile), name="request-arrival")
        return len(arrivals)


__all__ = ["RequestGenerator", "RequestMix"]
