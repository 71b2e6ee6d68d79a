"""Synthetic per-slice traffic demand profiles.

A profile maps (absolute simulation time, RNG) to an instantaneous
demand in Mb/s.  Profiles are expressed as a fraction of the slice's SLA
throughput so the same shape can be reused across slices of different
sizes; :meth:`TrafficProfile.demand` returns absolute Mb/s.

The key quantity for overbooking is the *mean-to-peak ratio*: a slice
that reserves its peak but averages 40% of it leaves 60% of the
reservation idle — that idle fraction is what statistical multiplexing
recovers (refs [1] and [4] of the paper).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

SECONDS_PER_DAY = 86_400.0


class TrafficProfile(ABC):
    """Base class: instantaneous slice demand as a function of time.

    Subclasses implement :meth:`fraction`, the deterministic shape in
    ``[0, 1]`` (possibly above 1 for overload bursts); :meth:`demand`
    scales it to absolute Mb/s and adds multiplicative noise.
    """

    def __init__(self, peak_mbps: float, noise_std: float = 0.05) -> None:
        if peak_mbps <= 0:
            raise ValueError(f"peak must be positive, got {peak_mbps}")
        if noise_std < 0:
            raise ValueError(f"noise_std must be non-negative, got {noise_std}")
        self.peak_mbps = float(peak_mbps)
        self.noise_std = float(noise_std)

    @abstractmethod
    def fraction(self, t: float) -> float:
        """Deterministic demand shape at time ``t`` as a fraction of peak."""

    def demand(self, t: float, rng: Optional[np.random.Generator] = None) -> float:
        """Instantaneous demand in Mb/s at time ``t`` (noisy if ``rng`` given)."""
        base = self.fraction(t) * self.peak_mbps
        if rng is not None and self.noise_std > 0:
            base *= max(0.0, 1.0 + rng.normal(0.0, self.noise_std))
        return max(0.0, base)


class ConstantProfile(TrafficProfile):
    """Flat demand at ``level`` × peak — the no-multiplexing-gain case."""

    def __init__(self, peak_mbps: float, level: float = 1.0, noise_std: float = 0.05) -> None:
        super().__init__(peak_mbps, noise_std)
        if not 0.0 <= level <= 1.5:
            raise ValueError(f"level must be in [0, 1.5], got {level}")
        self.level = float(level)

    def fraction(self, t: float) -> float:
        return self.level


class DiurnalProfile(TrafficProfile):
    """Sinusoidal day/night pattern — the canonical mobile-traffic shape.

    ``fraction(t) = base + (1 - base) * (0.5 - 0.5 * cos(2π (t/day - phase)))``
    peaks once per period; ``base`` is the overnight floor.  Following the
    mobile-traffic characterization in ref [4], different verticals peak at
    different phases (office vs. residential vs. road traffic), which is
    precisely the anti-correlation overbooking exploits.
    """

    def __init__(
        self,
        peak_mbps: float,
        base: float = 0.2,
        phase: float = 0.0,
        period_s: float = SECONDS_PER_DAY,
        noise_std: float = 0.05,
    ) -> None:
        super().__init__(peak_mbps, noise_std)
        if not 0.0 <= base < 1.0:
            raise ValueError(f"base must be in [0, 1), got {base}")
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        self.base = float(base)
        self.phase = float(phase) % 1.0
        self.period_s = float(period_s)

    def fraction(self, t: float) -> float:
        cycle = (t / self.period_s - self.phase) % 1.0
        return self.base + (1.0 - self.base) * (0.5 - 0.5 * math.cos(2.0 * math.pi * cycle))


class OnOffProfile(TrafficProfile):
    """Square-wave demand: ``on_fraction`` of each period at peak, else floor.

    Models machine-type (mMTC) reporting cycles and scheduled batch
    workloads; the abrupt edges stress the forecaster more than the
    smooth diurnal shape does.
    """

    def __init__(
        self,
        peak_mbps: float,
        on_fraction: float = 0.3,
        period_s: float = 3_600.0,
        floor: float = 0.05,
        noise_std: float = 0.05,
    ) -> None:
        super().__init__(peak_mbps, noise_std)
        if not 0.0 < on_fraction <= 1.0:
            raise ValueError(f"on_fraction must be in (0, 1], got {on_fraction}")
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        if not 0.0 <= floor <= 1.0:
            raise ValueError(f"floor must be in [0, 1], got {floor}")
        self.on_fraction = float(on_fraction)
        self.period_s = float(period_s)
        self.floor = float(floor)

    def fraction(self, t: float) -> float:
        cycle = (t % self.period_s) / self.period_s
        return 1.0 if cycle < self.on_fraction else self.floor


class SpikeProfile(TrafficProfile):
    """Low steady demand with deterministic short spikes to peak.

    Models URLLC / automotive safety bursts: tiny average load but hard
    latency and throughput requirements during the spike.  Spike times
    are derived from a hash of the spike index so the profile is
    deterministic given its parameters.
    """

    def __init__(
        self,
        peak_mbps: float,
        baseline: float = 0.1,
        spike_every_s: float = 600.0,
        spike_duration_s: float = 30.0,
        noise_std: float = 0.05,
    ) -> None:
        super().__init__(peak_mbps, noise_std)
        if not 0.0 <= baseline < 1.0:
            raise ValueError(f"baseline must be in [0, 1), got {baseline}")
        if spike_every_s <= 0 or spike_duration_s <= 0:
            raise ValueError("spike interval and duration must be positive")
        if spike_duration_s >= spike_every_s:
            raise ValueError("spike duration must be shorter than interval")
        self.baseline = float(baseline)
        self.spike_every_s = float(spike_every_s)
        self.spike_duration_s = float(spike_duration_s)

    def fraction(self, t: float) -> float:
        offset = t % self.spike_every_s
        return 1.0 if offset < self.spike_duration_s else self.baseline


__all__ = [
    "SECONDS_PER_DAY",
    "ConstantProfile",
    "DiurnalProfile",
    "OnOffProfile",
    "SpikeProfile",
    "TrafficProfile",
]
