"""Overbooking engine: statistical multiplexing of slice reservations.

The central idea of the paper.  A slice's SLA nominally reserves its
peak throughput, but real demand sits well below peak most of the time.
The engine therefore commits only an *effective* fraction of each
nominal reservation, freeing capacity for additional slices.  Three
policies are provided:

- :class:`NoOverbooking` — effective = nominal (the safe baseline),
- :class:`FixedOverbooking` — effective = nominal / factor, a static knob,
- :class:`ForecastOverbooking` — effective = the forecaster's upper
  ``q``-quantile of imminent demand (never above nominal),
- :class:`AdaptiveOverbooking` — wraps ForecastOverbooking in a feedback
  loop that tunes ``q`` to hit a target SLA-violation rate, realizing the
  demo's "trade-off between multiplexing gain and SLA violations".

:class:`MultiplexingGainTracker` and :class:`SlaMonitor` produce the two
series the demo dashboard plots: achieved gain and accrued penalties.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.forecasting import Forecaster


class OverbookingError(RuntimeError):
    """Raised on invalid overbooking configuration."""


@dataclass(frozen=True)
class OverbookingDecision:
    """Effective commitment for one slice in one domain.

    Attributes:
        slice_id: Subject slice.
        nominal: SLA-implied reservation (Mb/s, PRBs, ... caller's unit).
        effective: What will actually be committed (≤ nominal, > 0).
    """

    slice_id: str
    nominal: float
    effective: float

    def __post_init__(self) -> None:
        if self.nominal <= 0:
            raise OverbookingError(f"nominal must be positive, got {self.nominal}")
        if not 0 < self.effective <= self.nominal + 1e-9:
            raise OverbookingError(
                f"effective must be in (0, nominal={self.nominal}], got {self.effective}"
            )

    @property
    def fraction(self) -> float:
        """effective / nominal — the shrinkage factor in (0, 1]."""
        return self.effective / self.nominal


class OverbookingPolicy(ABC):
    """Maps a slice's nominal reservation to an effective commitment."""

    #: Hard floor on the shrinkage fraction: never commit less than this
    #: share of nominal, whatever the forecast says.
    MIN_FRACTION = 0.1

    @abstractmethod
    def decide(
        self,
        slice_id: str,
        nominal: float,
        forecaster: Optional[Forecaster] = None,
    ) -> OverbookingDecision:
        """Compute the effective commitment for a slice."""

    def decide_window(
        self,
        requests: Sequence[Tuple[str, float]],
        forecaster: Optional[Forecaster] = None,
    ) -> List[OverbookingDecision]:
        """Effective commitments for a whole decision window.

        Policies whose shrinkage depends only on the (shared) forecast
        override this to run the quantile math once per window instead
        of once per request; the default simply loops :meth:`decide`.

        Args:
            requests: ``(slice_id, nominal)`` pairs of the window.
        """
        return [self.decide(sid, nominal, forecaster) for sid, nominal in requests]

    def _clamp(self, slice_id: str, nominal: float, effective: float) -> OverbookingDecision:
        effective = min(nominal, max(self.MIN_FRACTION * nominal, effective))
        return OverbookingDecision(slice_id=slice_id, nominal=nominal, effective=effective)


class NoOverbooking(OverbookingPolicy):
    """Commit the full nominal reservation (baseline)."""

    def decide(
        self,
        slice_id: str,
        nominal: float,
        forecaster: Optional[Forecaster] = None,
    ) -> OverbookingDecision:
        if nominal <= 0:
            raise OverbookingError(f"nominal must be positive, got {nominal}")
        return OverbookingDecision(slice_id=slice_id, nominal=nominal, effective=nominal)


class FixedOverbooking(OverbookingPolicy):
    """Commit nominal / factor, e.g. factor 1.5 ⇒ commit 67% of nominal.

    The factor is the *carrier-level* overbooking ratio achievable when
    every slice receives the same shrinkage.
    """

    def __init__(self, factor: float = 1.5) -> None:
        if factor < 1.0:
            raise OverbookingError(f"factor must be ≥ 1, got {factor}")
        self.factor = float(factor)

    def decide(
        self,
        slice_id: str,
        nominal: float,
        forecaster: Optional[Forecaster] = None,
    ) -> OverbookingDecision:
        if nominal <= 0:
            raise OverbookingError(f"nominal must be positive, got {nominal}")
        return self._clamp(slice_id, nominal, nominal / self.factor)


class ForecastOverbooking(OverbookingPolicy):
    """Commit the forecaster's upper ``q``-quantile of imminent demand.

    Falls back to the full nominal reservation when no forecaster is
    available (cold start: a new slice has no history yet), which makes
    overbooking strictly opt-in as data accumulates — the demo behaviour
    of "monitoring past slice traffic behaviours".
    """

    def __init__(self, quantile: float = 0.95, horizon: int = 1) -> None:
        if not 0.0 < quantile < 1.0:
            raise OverbookingError(f"quantile must be in (0, 1), got {quantile}")
        if horizon < 1:
            raise OverbookingError(f"horizon must be ≥ 1, got {horizon}")
        self.quantile = float(quantile)
        self.horizon = int(horizon)

    def decide(
        self,
        slice_id: str,
        nominal: float,
        forecaster: Optional[Forecaster] = None,
    ) -> OverbookingDecision:
        if nominal <= 0:
            raise OverbookingError(f"nominal must be positive, got {nominal}")
        if forecaster is None:
            return OverbookingDecision(slice_id=slice_id, nominal=nominal, effective=nominal)
        predicted = forecaster.forecast_quantile(self.horizon, self.quantile)
        return self._clamp(slice_id, nominal, predicted)

    def decide_window(
        self,
        requests: Sequence[Tuple[str, float]],
        forecaster: Optional[Forecaster] = None,
    ) -> List[OverbookingDecision]:
        """One quantile forecast shared by the whole window.

        The shrinkage target depends only on the forecaster, so it is
        computed once and clamped per request — identical decisions to
        calling :meth:`decide` per request, minus the per-request
        quantile recomputation.
        """
        if forecaster is None:
            return [
                OverbookingDecision(slice_id=sid, nominal=nominal, effective=nominal)
                for sid, nominal in requests
            ]
        predicted = forecaster.forecast_quantile(self.horizon, self.quantile)
        return [self._clamp(sid, nominal, predicted) for sid, nominal in requests]


class AdaptiveOverbooking(OverbookingPolicy):
    """Feedback controller trading multiplexing gain against violations.

    Maintains an internal forecast quantile ``q``: observed violation
    rate above the budget ⇒ raise ``q`` (commit more, safer); below
    budget ⇒ lower ``q`` (commit less, more gain).  The step is
    proportional to the error, clipped to keep ``q`` in a sane band.

    Args:
        violation_budget: Target fraction of violated epochs (e.g. 0.05).
        initial_quantile: Starting ``q``.
        gain: Proportional step size of the controller.
    """

    Q_MIN = 0.5
    Q_MAX = 0.999

    def __init__(
        self,
        violation_budget: float = 0.05,
        initial_quantile: float = 0.9,
        gain: float = 0.5,
    ) -> None:
        if not 0.0 <= violation_budget < 1.0:
            raise OverbookingError(
                f"violation budget must be in [0, 1), got {violation_budget}"
            )
        if not self.Q_MIN <= initial_quantile <= self.Q_MAX:
            raise OverbookingError(
                f"initial quantile must be in [{self.Q_MIN}, {self.Q_MAX}]"
            )
        if gain <= 0:
            raise OverbookingError(f"gain must be positive, got {gain}")
        self.violation_budget = float(violation_budget)
        self.gain = float(gain)
        self._inner = ForecastOverbooking(quantile=initial_quantile)
        self._epochs = 0
        self._violations = 0

    @property
    def quantile(self) -> float:
        """Current operating quantile of the inner forecast policy."""
        return self._inner.quantile

    def observe(self, violated: bool) -> None:
        """Feed one monitoring epoch's outcome into the controller."""
        self._epochs += 1
        if violated:
            self._violations += 1
        rate = self._violations / self._epochs
        error = rate - self.violation_budget
        new_q = self._inner.quantile + self.gain * error
        self._inner.quantile = min(self.Q_MAX, max(self.Q_MIN, new_q))

    def decide(
        self,
        slice_id: str,
        nominal: float,
        forecaster: Optional[Forecaster] = None,
    ) -> OverbookingDecision:
        return self._inner.decide(slice_id, nominal, forecaster)

    def decide_window(
        self,
        requests: Sequence[Tuple[str, float]],
        forecaster: Optional[Forecaster] = None,
    ) -> List[OverbookingDecision]:
        return self._inner.decide_window(requests, forecaster)


class MultiplexingGainTracker:
    """Tracks the gain metric the demo dashboard displays.

    Gain is defined per domain as ``nominal committed / physical
    capacity`` — 1.0 means no overbooking; 1.6 means the broker sold 60%
    more nominal capacity than physically exists.  The tracker keeps
    every recorded gain, one double per monitoring epoch, so the
    dashboard can plot gain alongside penalties.
    """

    def __init__(self) -> None:
        self.series = array("d")

    @staticmethod
    def gain(nominal_committed: float, capacity: float) -> float:
        """Instantaneous gain (0.0 when capacity is 0).

        Raises:
            OverbookingError: If capacity is negative.
        """
        if capacity < 0:
            raise OverbookingError(f"capacity cannot be negative, got {capacity}")
        if capacity == 0:
            return 0.0
        return nominal_committed / capacity

    def record(self, nominal_committed: float, capacity: float) -> float:
        """Record this epoch's instantaneous gain and return it."""
        g = self.gain(nominal_committed, capacity)
        self.series.append(g)
        return g

    def peak_gain(self) -> float:
        """Highest recorded gain (0.0 before any record)."""
        return float(np.asarray(self.series).max()) if self.series else 0.0

    def mean_gain(self) -> float:
        """Average recorded gain (0.0 before any record)."""
        return float(np.asarray(self.series).mean()) if self.series else 0.0


class SlaMonitor:
    """Per-epoch SLA violation detection and penalty computation.

    A slice's epoch is violated when delivered throughput falls short of
    what the tenant was *entitled to*: ``min(demand, nominal)``.  Demand
    above nominal is the tenant exceeding its own SLA — not a violation
    — and a small relative tolerance absorbs floating-point noise.
    """

    def __init__(self, tolerance: float = 0.01) -> None:
        if not 0.0 <= tolerance < 1.0:
            raise OverbookingError(f"tolerance must be in [0, 1), got {tolerance}")
        self.tolerance = float(tolerance)
        self.total_epochs = 0
        self.total_violations = 0

    def check(
        self, demand: np.ndarray, delivered: np.ndarray, nominal: np.ndarray
    ) -> np.ndarray:
        """Evaluate one epoch of every slice (elementwise over the three
        arrays); returns the violated mask."""
        if (nominal <= 0).any():
            raise OverbookingError(f"nominal must be positive, got {nominal.min()}")
        entitled = np.where(nominal < demand, nominal, demand)
        violated = delivered < entitled * (1.0 - self.tolerance) - 1e-9
        self.total_epochs += violated.size
        self.total_violations += int(np.count_nonzero(violated))
        return violated

    def violation_rate(self) -> float:
        """Fleet-wide fraction of violated epochs (a slice's own ratio
        is :meth:`~repro.core.slices.NetworkSlice.violation_ratio`)."""
        return self.total_violations / self.total_epochs if self.total_epochs else 0.0


__all__ = [
    "AdaptiveOverbooking",
    "FixedOverbooking",
    "ForecastOverbooking",
    "MultiplexingGainTracker",
    "NoOverbooking",
    "OverbookingDecision",
    "OverbookingError",
    "OverbookingPolicy",
    "SlaMonitor",
]
