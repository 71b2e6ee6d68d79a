"""Bounded in-memory time series.

The forecaster consumes per-slice demand histories; this store keeps
``(timestamp, value)`` pairs in arrival order with an optional retention
cap, and offers the window/resample/statistics operations the
forecasting and dashboard code need.  Timestamps must be non-decreasing
— the epoch loop always appends at the current simulation time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np


class TimeSeriesError(RuntimeError):
    """Raised on time-series misuse (e.g. out-of-order appends)."""


class TimeSeries:
    """Append-only (time, value) sequence with bounded retention."""

    def __init__(self, name: str = "", max_points: Optional[int] = None) -> None:
        if max_points is not None and max_points <= 0:
            raise TimeSeriesError(f"max_points must be positive, got {max_points}")
        self.name = name
        self._points: Deque[Tuple[float, float]] = deque(maxlen=max_points)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def empty(self) -> bool:
        """Whether the series holds no points."""
        return not self._points

    def append(self, t: float, value: float) -> bool:
        """Append a sample; ``True`` when the retention cap dropped the
        oldest one to make room.

        Raises:
            TimeSeriesError: If ``t`` precedes the latest sample.
        """
        if self._points and t < self._points[-1][0]:
            raise TimeSeriesError(
                f"out-of-order append: t={t} < last t={self._points[-1][0]}"
            )
        slid = len(self._points) == self._points.maxlen
        self._points.append((float(t), float(value)))
        return slid

    def last(self) -> Tuple[float, float]:
        """Latest (time, value) sample.

        Raises:
            TimeSeriesError: If the series is empty.
        """
        if not self._points:
            raise TimeSeriesError(f"series {self.name!r} is empty")
        return self._points[-1]

    def values(self) -> np.ndarray:
        """All values as an array."""
        return np.array([v for _, v in self._points], dtype=float)

    def window(self, start_t: float, end_t: float) -> List[Tuple[float, float]]:
        """Samples with ``start_t ≤ t < end_t``."""
        if end_t < start_t:
            raise TimeSeriesError(f"bad window [{start_t}, {end_t})")
        return [(t, v) for t, v in self._points if start_t <= t < end_t]

    def tail(self, n: int) -> np.ndarray:
        """Values of the ``n`` most recent samples (fewer if short)."""
        if n <= 0:
            raise TimeSeriesError(f"n must be positive, got {n}")
        vals = self.values()
        return vals[-n:]

    def mean(self) -> float:
        """Mean of all retained values (0.0 when empty)."""
        return float(self.values().mean()) if self._points else 0.0

    def std(self) -> float:
        """Standard deviation of retained values (0.0 when < 2 points)."""
        if len(self._points) < 2:
            return 0.0
        return float(self.values().std(ddof=1))

    def quantile(self, q: float) -> float:
        """Empirical quantile of retained values.

        Raises:
            TimeSeriesError: If empty or ``q`` outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise TimeSeriesError(f"quantile must be in [0, 1], got {q}")
        if not self._points:
            raise TimeSeriesError(f"series {self.name!r} is empty")
        return float(np.quantile(self.values(), q))

    def resample(self, period: float, start_t: Optional[float] = None) -> np.ndarray:
        """Average values into fixed ``period``-wide bins.

        Empty bins carry the previous bin's value forward (or 0.0 at the
        start), giving the evenly-spaced series the forecasters expect.
        """
        if period <= 0:
            raise TimeSeriesError(f"period must be positive, got {period}")
        if not self._points:
            return np.array([], dtype=float)
        t0 = self._points[0][0] if start_t is None else start_t
        t_end = self._points[-1][0]
        n_bins = max(1, int((t_end - t0) / period) + 1)
        sums = np.zeros(n_bins)
        counts = np.zeros(n_bins)
        for t, v in self._points:
            if t < t0:
                continue
            idx = min(int((t - t0) / period), n_bins - 1)
            sums[idx] += v
            counts[idx] += 1
        out = np.zeros(n_bins)
        prev = 0.0
        for i in range(n_bins):
            if counts[i] > 0:
                prev = sums[i] / counts[i]
            out[i] = prev
        return out


__all__ = ["TimeSeries", "TimeSeriesError"]
