"""The control-plane observability facade — and its free no-op twin.

Every instrumentation point in the orchestrator, planner, journal and
API layers talks to one of two objects with the same surface:

- :class:`ControlPlaneObservability` — the real thing: a
  :class:`~repro.obs.span.Tracer`, lazily-created per-stage
  :class:`~repro.obs.histogram.LatencyHistogram` instances (every
  finished span auto-feeds the histogram named after it), plus plain
  counters and gauges.
- :class:`NoopObservability` — the default.  A *shared singleton*
  (:data:`NOOP_OBS`) whose every span-producing method returns the one
  shared :data:`NOOP_SPAN` and whose every recording method is a bare
  ``pass`` — the disabled path allocates nothing, so instrumentation
  can stay unconditional at most call sites.

A sink belongs to one shard's control plane and, like it, is entered by
one thread at a time, so neither takes a lock.

Call sites that would otherwise pay for argument construction (an
extra ``perf_counter()``, a dict of attributes) guard on
``obs.enabled`` first; everything else calls straight through.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.obs.histogram import DEFAULT_BUCKETS_MS, LatencyHistogram
from repro.obs.span import Span, SpanContext, Tracer


class _Timed:
    """Context manager: histogram the wall-clock time of a block."""

    __slots__ = ("_obs", "_name", "_label", "_start")

    def __init__(self, obs: "ControlPlaneObservability", name: str, label: str) -> None:
        self._obs = obs
        self._name = name
        self._label = label

    def __enter__(self) -> "_Timed":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._obs.observe(
            self._name, (perf_counter() - self._start) * 1000.0, label=self._label
        )
        return False


class _Histograms(dict):
    """``(name, label)`` → histogram, made at first lookup; fed each finished
    span, so the tracer's hook holds no way back to the sink owning both."""

    def __init__(self, buckets_ms: Tuple[float, ...]) -> None:
        super().__init__()
        self.buckets_ms = buckets_ms

    def __missing__(self, key: Tuple[str, str]) -> LatencyHistogram:
        hist = self[key] = LatencyHistogram(key[0], label=key[1], buckets_ms=self.buckets_ms)
        return hist

    def span_finished(self, span: Span) -> None:
        self[span.name, span.label].observe(span.duration_ms or 0.0)


class ControlPlaneObservability:
    """Tracing + histograms + counters/gauges behind one object.

    Args:
        trace_capacity: Finished-trace (and slow-span) retention.
        slow_span_ms: Spans at least this slow enter the slow-op audit
            buffer with full ancestry.
        buckets_ms: Histogram bucket bounds (defaults to
            :data:`~repro.obs.histogram.DEFAULT_BUCKETS_MS`).
    """

    enabled = True

    def __init__(
        self,
        trace_capacity: int = 256,
        slow_span_ms: float = 250.0,
        buckets_ms: Optional[Sequence[float]] = None,
    ) -> None:
        self.slow_span_ms = float(slow_span_ms)
        self._hists = _Histograms(tuple(buckets_ms or DEFAULT_BUCKETS_MS))
        self.tracer = Tracer(
            capacity=trace_capacity,
            slow_threshold_ms=self.slow_span_ms,
            on_finish=self._hists.span_finished,
        )
        self._counters: Dict[Tuple[str, str], float] = {}
        self._gauges: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        label: str = "",
        **attributes: Any,
    ) -> Span:
        """Open a span (finish it, or use it as a context manager)."""
        return self.tracer.start_span(
            name, parent=parent, label=label, attributes=attributes or None
        )

    # ------------------------------------------------------------------
    # Histograms / counters / gauges
    # ------------------------------------------------------------------
    def histogram(self, name: str, label: str = "") -> LatencyHistogram:
        return self._hists[name, label]

    def observe(self, name: str, value_ms: float, label: str = "") -> None:
        self.histogram(name, label).observe(value_ms)

    def counter_add(self, name: str, amount: float = 1.0, label: str = "") -> None:
        key = (name, label)
        self._counters[key] = self._counters.get(key, 0.0) + amount

    def gauge_set(self, name: str, value: float, label: str = "") -> None:
        self._gauges[(name, label)] = float(value)

    def timed(self, name: str, label: str = "") -> _Timed:
        """Histogram a block's duration without creating a span."""
        return _Timed(self, name, label)

    # ------------------------------------------------------------------
    # Read side (export + breakdown tables)
    # ------------------------------------------------------------------
    def histograms(self) -> Dict[Tuple[str, str], LatencyHistogram]:
        return dict(self._hists)

    def counters(self) -> Dict[Tuple[str, str], float]:
        return dict(self._counters)

    def gauges(self) -> Dict[Tuple[str, str], float]:
        return dict(self._gauges)

    def merged_histogram(self, name: str) -> Optional[LatencyHistogram]:
        """One histogram folding every label of ``name`` together
        (e.g. ``driver.prepare`` across all domains)."""
        parts = [h for (n, _), h in self.histograms().items() if n == name]
        if not parts:
            return None
        merged = LatencyHistogram(name, buckets_ms=self._hists.buckets_ms)
        for part in parts:
            part.merge_into(merged)
        return merged

    def stage_summary(self, names: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Per-stage latency breakdown: ``name -> summary dict`` (labels
        merged), skipping stages with no observations."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in names:
            merged = self.merged_histogram(name)
            if merged is not None and merged.count:
                out[name] = merged.to_dict()
        return out

    def status(self) -> Dict[str, Any]:
        return {
            "enabled": True,
            "histograms": len(self._hists),
            "counters": len(self._counters),
            "gauges": len(self._gauges),
            "tracer": self.tracer.status(),
        }


class _NoopSpan:
    """The one span of the disabled path: inert, reusable, shared."""

    __slots__ = ()
    context: Optional[SpanContext] = None
    name = ""
    label = ""
    status = "noop"
    error: Optional[str] = None
    duration_ms: Optional[float] = None

    def finish(self, status: str = "ok", error: Optional[str] = None) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {}


class _NoopContext:
    """Shared do-nothing context manager for ``timed`` on the no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()
_NOOP_CONTEXT = _NoopContext()


class NoopObservability:
    """Same surface as :class:`ControlPlaneObservability`, zero cost.

    All span factories return the shared :data:`NOOP_SPAN`; nothing is
    allocated or timed.  One shared instance
    (:data:`NOOP_OBS`) serves every disabled orchestrator/planner in
    the process.
    """

    enabled = False
    slow_span_ms: Optional[float] = None
    tracer = None

    def span(self, name, parent=None, label="", **attributes) -> _NoopSpan:
        return NOOP_SPAN

    def histogram(self, name, label="") -> None:
        return None

    def observe(self, name, value_ms, label="") -> None:
        pass

    def counter_add(self, name, amount=1.0, label="") -> None:
        pass

    def gauge_set(self, name, value, label="") -> None:
        pass

    def timed(self, name, label="") -> _NoopContext:
        return _NOOP_CONTEXT

    def histograms(self) -> Dict[Tuple[str, str], LatencyHistogram]:
        return {}

    def counters(self) -> Dict[Tuple[str, str], float]:
        return {}

    def gauges(self) -> Dict[Tuple[str, str], float]:
        return {}

    def merged_histogram(self, name) -> None:
        return None

    def stage_summary(self, names) -> Dict[str, Dict[str, Any]]:
        return {}

    def status(self) -> Dict[str, Any]:
        return {"enabled": False}


NOOP_OBS = NoopObservability()


def enabled_by_env() -> bool:
    """The process-wide switch: on only when ``REPRO_OBS_ENABLED=1``
    (how CI's concurrency-repeat and soak jobs switch it on without
    threading a config through every harness)."""
    return os.environ.get("REPRO_OBS_ENABLED", "") == "1"


def default_observability() -> "ControlPlaneObservability | NoopObservability":
    """The process default: a live registry when :func:`enabled_by_env`."""
    return ControlPlaneObservability() if enabled_by_env() else NOOP_OBS


__all__ = [
    "ControlPlaneObservability",
    "NOOP_OBS",
    "NOOP_SPAN",
    "NoopObservability",
    "default_observability",
    "enabled_by_env",
]
