"""Fixed-bucket wall-clock latency histograms.

Prometheus-style cumulative buckets over a fixed bound list.
``observe`` folds one value into the bucket counts directly: a
histogram belongs to its shard's obs sink, entered by one thread at a
time, so it takes no lock.  Percentiles (p50/p95/p99) are estimated by
linear interpolation inside the bucket that crosses the target rank,
which is exact enough for the "where did the milliseconds go" question
this subsystem answers; ``max`` is tracked exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default bounds (milliseconds): sub-ms resolution for the in-process
#: simulator drivers up through multi-second southbound stalls.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class LatencyHistogram:
    """One fixed-bucket histogram.

    Attributes:
        name: Metric name, dotted (``"driver.prepare"``).
        label: Optional sub-label (the domain, for driver ops).
        count: Observations recorded.
    """

    def __init__(
        self,
        name: str,
        label: str = "",
        buckets_ms: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.label = label
        self.bounds: Tuple[float, ...] = tuple(
            sorted(buckets_ms if buckets_ms is not None else DEFAULT_BUCKETS_MS)
        )
        # counts[i] = observations <= bounds[i] (non-cumulative here;
        # the final slot is the +Inf overflow bucket).
        self._counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self._sum_ms = 0.0
        self._max_ms = 0.0
        self._min_ms = float("inf")

    def observe(self, value_ms: float) -> None:
        """Record one observation."""
        value_ms = float(value_ms)
        self._counts[bisect_left(self.bounds, value_ms)] += 1
        self.count += 1
        self._sum_ms += value_ms
        if value_ms > self._max_ms:
            self._max_ms = value_ms
        if value_ms < self._min_ms:
            self._min_ms = value_ms

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound_ms, count)`` pairs, +Inf last."""
        counts = self._counts
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) in milliseconds."""
        counts, total, max_ms = self._counts, self.count, self._max_ms
        if total == 0:
            return 0.0
        rank = q * total
        running = 0.0
        lower = 0.0
        for bound, count in zip(self.bounds, counts):
            if running + count >= rank:
                if count == 0:
                    return min(bound, max_ms)
                fraction = (rank - running) / count
                return min(lower + (bound - lower) * fraction, max_ms)
            running += count
            lower = bound
        return max_ms  # rank falls in the +Inf overflow bucket

    def to_dict(self) -> Dict[str, Any]:
        count, sum_ms, max_ms = self.count, self._sum_ms, self._max_ms
        min_ms = self._min_ms if count else 0.0
        return {
            "name": self.name,
            "label": self.label,
            "count": count,
            "sum_ms": sum_ms,
            "max_ms": max_ms,
            "min_ms": min_ms,
            "mean_ms": (sum_ms / count) if count else 0.0,
            "p50_ms": self.quantile(0.50),
            "p95_ms": self.quantile(0.95),
            "p99_ms": self.quantile(0.99),
            "buckets": [
                [bound, cumulative] for bound, cumulative in self.bucket_counts()
            ],
        }

    def merge_into(self, other: "LatencyHistogram") -> None:
        """Fold this histogram's observations into ``other`` (must share
        bucket bounds) — used for the cross-label per-stage summary."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.name} vs {other.name})"
            )
        for i, c in enumerate(self._counts):
            other._counts[i] += c
        other.count += self.count
        other._sum_ms += self._sum_ms
        if self._max_ms > other._max_ms:
            other._max_ms = self._max_ms
        if self._min_ms < other._min_ms:
            other._min_ms = self._min_ms


__all__ = ["DEFAULT_BUCKETS_MS", "LatencyHistogram"]
