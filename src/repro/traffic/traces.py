"""Trace-driven demand profiles.

Ref [4] of the paper (Sciancalepore et al., INFOCOM'17) trains its
forecaster on a real operator dataset (the Telecom Italia Milan grid).
That dataset is proprietary, so — per the reproduction's substitution
rule — :class:`SyntheticCityTrace` generates traces with the same
published structure: a strong daily cycle, a weekly cycle (weekday vs.
weekend amplitude), lognormal multiplicative noise and occasional flash
events.  :class:`TraceProfile` replays any demand array as a slice
profile, so recorded or generated traces plug into the same machinery
as the analytic shapes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.traffic.patterns import SECONDS_PER_DAY, TrafficProfile

SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


class TraceProfile(TrafficProfile):
    """Replays a sampled demand trace (fractions of peak).

    Args:
        peak_mbps: Scale of the trace (fraction 1.0 ⇒ this many Mb/s).
        samples: Demand fractions, one per ``sample_period_s``.
        sample_period_s: Spacing of the samples.
        wrap: Replay from the start after the trace ends (else hold the
            last sample).
    """

    def __init__(
        self,
        peak_mbps: float,
        samples: Sequence[float],
        sample_period_s: float = 600.0,
        wrap: bool = True,
        noise_std: float = 0.0,
    ) -> None:
        super().__init__(peak_mbps, noise_std)
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ValueError("trace must contain at least one sample")
        if np.any(~np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("trace samples must be finite and non-negative")
        if sample_period_s <= 0:
            raise ValueError(f"sample period must be positive, got {sample_period_s}")
        self.samples = arr
        self.sample_period_s = float(sample_period_s)
        self.wrap = bool(wrap)

    def fraction(self, t: float) -> float:
        idx = int(t / self.sample_period_s)
        if self.wrap:
            idx %= self.samples.size
        else:
            idx = min(idx, self.samples.size - 1)
        return float(self.samples[idx])


class SyntheticCityTrace:
    """Generator of Milan-grid-like mobile demand traces.

    The published characterization of city-scale mobile traffic (used by
    ref [4]) has three robust features this generator reproduces:

    1. a dominant diurnal cycle whose peak hour depends on land use
       (office ~14:00, residential ~21:00, transport ~08:00/18:00),
    2. a weekly cycle — weekends lose 20-40% of weekday volume,
    3. heavy-tailed short-term fluctuations (lognormal multiplicative
       noise) plus rare flash events (crowd gatherings).

    Args:
        land_use: "office", "residential" or "transport" — sets the
            diurnal phase/shape.
        weekend_damping: Multiplier applied on days 5-6 of each week.
        noise_sigma: σ of the lognormal multiplicative noise.
        flash_probability: Per-sample probability of a flash event.
        flash_magnitude: Demand multiplier during a flash event.
    """

    PHASES = {
        "office": (14.0, 1.0),  # peak hour, single-bump weight
        "residential": (21.0, 1.0),
        "transport": (8.0, 0.5),  # two bumps: morning + evening
    }

    def __init__(
        self,
        land_use: str = "residential",
        weekend_damping: float = 0.7,
        noise_sigma: float = 0.15,
        flash_probability: float = 0.002,
        flash_magnitude: float = 1.8,
    ) -> None:
        if land_use not in self.PHASES:
            raise ValueError(
                f"unknown land use {land_use!r}; valid: {sorted(self.PHASES)}"
            )
        if not 0.0 < weekend_damping <= 1.0:
            raise ValueError(f"weekend damping must be in (0, 1], got {weekend_damping}")
        if noise_sigma < 0:
            raise ValueError(f"noise sigma must be non-negative, got {noise_sigma}")
        if not 0.0 <= flash_probability < 1.0:
            raise ValueError("flash probability must be in [0, 1)")
        if flash_magnitude < 1.0:
            raise ValueError(f"flash magnitude must be ≥ 1, got {flash_magnitude}")
        self.land_use = land_use
        self.weekend_damping = float(weekend_damping)
        self.noise_sigma = float(noise_sigma)
        self.flash_probability = float(flash_probability)
        self.flash_magnitude = float(flash_magnitude)

    def _deterministic_fraction(self, t: float) -> float:
        """Diurnal × weekly structure without noise, in [0, 1]."""
        peak_hour, single = self.PHASES[self.land_use]
        hour = (t % SECONDS_PER_DAY) / 3_600.0
        main = 0.5 - 0.5 * math.cos(2.0 * math.pi * (hour - peak_hour - 12.0) / 24.0)
        if single < 1.0:  # transport: add the second (evening) commute bump
            evening = 0.5 - 0.5 * math.cos(
                2.0 * math.pi * (hour - peak_hour - 10.0 - 12.0) / 24.0
            )
            main = max(main * 2 * single, evening * 2 * single)
            main = min(main, 1.0)
        base = 0.15 + 0.85 * main
        day_of_week = int(t // SECONDS_PER_DAY) % 7
        if day_of_week >= 5:
            base *= self.weekend_damping
        return min(1.0, base)

    def generate(
        self,
        n_days: int = 7,
        sample_period_s: float = 600.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Generate a fraction-of-peak trace.

        Returns an array of length ``n_days × day/sample_period``,
        clipped to [0, ~flash_magnitude].
        """
        if n_days <= 0:
            raise ValueError(f"n_days must be positive, got {n_days}")
        rng = rng or np.random.default_rng(0)
        n = int(n_days * SECONDS_PER_DAY / sample_period_s)
        times = np.arange(n) * sample_period_s
        base = np.array([self._deterministic_fraction(float(t)) for t in times])
        noise = rng.lognormal(mean=0.0, sigma=self.noise_sigma, size=n)
        flashes = np.where(
            rng.random(n) < self.flash_probability, self.flash_magnitude, 1.0
        )
        return np.clip(base * noise * flashes, 0.0, self.flash_magnitude)

    def profile(
        self,
        peak_mbps: float,
        n_days: int = 7,
        sample_period_s: float = 600.0,
        rng: Optional[np.random.Generator] = None,
    ) -> TraceProfile:
        """Generate a trace and wrap it as a replayable profile."""
        samples = self.generate(n_days, sample_period_s, rng)
        return TraceProfile(
            peak_mbps, samples, sample_period_s=sample_period_s, wrap=True
        )


__all__ = ["SECONDS_PER_WEEK", "SyntheticCityTrace", "TraceProfile"]
