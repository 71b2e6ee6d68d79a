"""Tracing spans with explicit context propagation.

The install planner interleaves many jobs' continuations on the one
thread draining its run queue, and a blocking third-party driver
completes on a worker.  Thread-local "current span" tricks are useless
there, so
propagation is *explicit*: a :class:`SpanContext` (trace id, span id,
parent id) is carried through job state machines
(``InstallJob.span_context``) and handed to every child span at
creation time.  Whatever thread finishes the span, its ancestry is
already pinned.

The :class:`Tracer` keeps two bounded buffers:

- **traces** — when a *root* span finishes, its whole span tree is
  assembled into one JSON-safe payload and retained (newest first,
  ``capacity`` deep).  This is what ``GET /v1/admin/traces`` serves.
- **slow spans** — any span whose duration exceeds
  ``slow_threshold_ms`` is retained individually *with its ancestry*
  (the chain of span names up to the root), so a slow journal fsync is
  attributable to the batch that caused it even after the trace itself
  aged out of the buffer.

Everything is wall-clock (``time.perf_counter``): this subsystem
profiles the orchestrator process itself, not the simulated world.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class SpanContext:
    """The portable identity of a span — everything a child (possibly
    created on another thread) needs to attach itself correctly.

    A plain ``__slots__`` class rather than a dataclass, and the ids
    are plain ints: one context is created per span on the install hot
    path, and the measured overhead budget (ci_gate's ≤5% bar) is
    tight enough that dataclass ``__init__`` machinery and per-span
    string formatting show up.  Ids are rendered to their external
    string form (``t00000007`` / ``s00000042``) only at read time.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(
        self, trace_id: int, span_id: int, parent_id: Optional[int] = None
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id


def _trace_name(trace_id: int) -> str:
    return f"t{trace_id:08d}"


def _span_name(span_id: Optional[int]) -> Optional[str]:
    return None if span_id is None else f"s{span_id:08d}"


class Span:
    """One timed operation inside a trace.

    Created via :meth:`Tracer.start_span` (or the observability
    registry's ``span``), finished exactly once via :meth:`finish` —
    idempotent, because a completion callback and a deadline may race
    to close the same operation.  Usable as a context manager; an
    exception escaping the block marks the span as an error.
    """

    __slots__ = (
        "name", "label", "context", "attributes",
        "start", "duration_ms", "status", "error", "_tracer", "_open",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        context: SpanContext,
        label: str = "",
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.label = label
        self.context = context
        self.attributes = attributes
        # Atomic close claim: list.pop() is atomic under the GIL, so
        # whichever of a completion callback and a deadline pops first
        # owns the close — no lock on the finish fast path.
        self._open = [True]
        self.start = perf_counter()
        self.duration_ms: Optional[float] = None
        self.status = "in_flight"
        self.error: Optional[str] = None

    def finish(self, status: str = "ok", error: Optional[str] = None) -> "Span":
        """Close the span (idempotent — the first close wins)."""
        self._tracer._finish(self, status, error)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is None:
            self.finish()
        else:
            self.finish("error", error=f"{exc_type.__name__}: {exc}")
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": _trace_name(self.context.trace_id),
            "span_id": _span_name(self.context.span_id),
            "parent_id": _span_name(self.context.parent_id),
            "name": self.name,
            "label": self.label,
            "status": self.status,
            "error": self.error,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes) if self.attributes else {},
        }


class Tracer:
    """Thread-safe span factory + bounded trace/slow-span retention.

    Args:
        capacity: How many finished traces (and, separately, slow
            spans) to retain, newest first.
        slow_threshold_ms: Finished spans at least this slow enter the
            slow-span audit buffer with their ancestry.
        max_active_traces: Backstop against leaked roots — when more
            traces than this are in flight, the oldest is dropped.
        max_spans_per_trace: Backstop against runaway fan-out inside
            one trace; surplus spans are counted, not retained.
        on_finish: Hook fired for every finished span (the registry
            feeds per-stage latency histograms through this).
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_threshold_ms: float = 250.0,
        max_active_traces: int = 1024,
        max_spans_per_trace: int = 4096,
        on_finish: Optional[Callable[[Span], None]] = None,
    ) -> None:
        self.capacity = int(capacity)
        self.slow_threshold_ms = float(slow_threshold_ms)
        self.max_active_traces = int(max_active_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self.on_finish = on_finish
        # The lock guards the *structural* slow paths only: root
        # creation/eviction, root finish (trace retention), and the
        # slow-span buffer.  Non-root span start/finish — the install
        # hot path, hit from every planner worker thread — is lock-free:
        # single dict reads/writes are atomic under the GIL, and the
        # counters below are maintained by storing the value of an
        # atomic itertools.count (a read may transiently observe a
        # slightly stale value mid-flight; they are exact at quiescence,
        # which is when tests and the status endpoint read them).
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._started_ids = itertools.count(1)
        self._finished_ids = itertools.count(1)
        self._dropped_ids = itertools.count(1)
        # trace_id -> span_id -> Span, in creation order (root first);
        # plain dicts — insertion-ordered since 3.7 and cheaper than
        # OrderedDict on this hot path.
        self._active: Dict[int, Dict[int, Span]] = {}
        self._traces: deque = deque(maxlen=self.capacity)
        self._slow: deque = deque(maxlen=self.capacity)
        self.spans_started = 0
        self.spans_finished = 0
        #: Spans discarded by a bound (overfull trace, evicted trace,
        #: or a finish that arrived after its trace was assembled).
        self.spans_dropped = 0

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        label: str = "",
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span; a ``parent`` context attaches it to that trace,
        no parent starts a new trace rooted here."""
        # Id generation and span construction stay outside the lock:
        # next() on itertools.count is atomic under the GIL, and eight
        # planner worker threads finishing driver ops all funnel
        # through this tracer.
        serial = next(self._ids)
        if parent is None:
            context = SpanContext(trace_id=serial, span_id=serial)
        else:
            context = SpanContext(
                trace_id=parent.trace_id,
                span_id=serial,
                parent_id=parent.span_id,
            )
        span = Span(self, name, context, label=label, attributes=attributes)
        self.spans_started = next(self._started_ids)
        if parent is None:
            # Roots are rare (one per batch): take the lock to register
            # the trace and enforce the active-trace bound.
            with self._lock:
                spans = {context.span_id: span}
                self._active[context.trace_id] = spans
                while len(self._active) > self.max_active_traces:
                    del self._active[next(iter(self._active))]
                    self.spans_dropped = next(self._dropped_ids)
            return span
        spans = self._active.get(context.trace_id)
        if spans is None:
            # Child of an already-assembled (or evicted) trace: still
            # timed and histogrammed, just not retained.
            self.spans_dropped = next(self._dropped_ids)
            return span
        if len(spans) >= self.max_spans_per_trace:
            self.spans_dropped = next(self._dropped_ids)
            return span
        # Lock-free insert: dict __setitem__ is atomic under the GIL.
        # If the root finishes concurrently, `spans` is the same dict
        # the retained trace references, so the child still lands in
        # the assembled payload; the size bound above is approximate
        # under that race, which is fine for a backstop.
        spans[context.span_id] = span
        return span

    def _finish(self, span: Span, status: str, error: Optional[str]) -> None:
        ended = perf_counter()
        try:
            span._open.pop()  # atomic claim — first close wins
        except IndexError:
            return  # completion/timeout race: the other side closed it
        span.duration_ms = (ended - span.start) * 1000.0
        span.status = status
        span.error = error
        self.spans_finished = next(self._finished_ids)
        if span.duration_ms >= self.slow_threshold_ms:
            with self._lock:
                entry = span.to_dict()
                entry["ancestry"] = self._ancestry_locked(span)
                self._slow.append(entry)
        if span.context.parent_id is None:
            with self._lock:
                spans = self._active.pop(span.context.trace_id, None)
                if spans is not None and span.context.span_id in spans:
                    # Retention is lazy: keep the live span tree and
                    # assemble the JSON payload only when traces() is
                    # read — root finish sits on the install critical
                    # path.
                    self._traces.append((span, spans))
        if self.on_finish is not None:
            try:
                self.on_finish(span)
            except Exception:  # pragma: no cover - metrics never fail ops
                pass

    def _ancestry_locked(self, span: Span) -> List[Dict[str, str]]:
        """Root→parent chain of span names/ids, for slow-span triage."""
        spans = self._active.get(span.context.trace_id, {})
        chain: List[Dict[str, str]] = []
        parent_id = span.context.parent_id
        seen = set()
        while parent_id is not None and parent_id not in seen:
            seen.add(parent_id)
            parent = spans.get(parent_id)
            if parent is None:
                break
            chain.append(
                {
                    "span_id": _span_name(parent.context.span_id),
                    "name": parent.name,
                    "label": parent.label,
                }
            )
            parent_id = parent.context.parent_id
        chain.reverse()
        return chain

    @staticmethod
    def _assemble(root: Span, spans: Dict[int, Span]) -> Dict[str, Any]:
        """Fold a finished trace into one JSON-safe payload (spans in
        creation order; an unfinished child is visible as in_flight)."""
        out = []
        for span in spans.values():
            entry = span.to_dict()
            entry["start_offset_ms"] = (span.start - root.start) * 1000.0
            out.append(entry)
        return {
            "trace_id": _trace_name(root.context.trace_id),
            "root": root.name,
            "status": root.status,
            "duration_ms": root.duration_ms,
            "span_count": len(out),
            "spans": out,
        }

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def traces(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Finished traces, newest first."""
        with self._lock:
            raw = list(self._traces)
        raw.reverse()
        if limit is not None:
            raw = raw[:limit]
        return [self._assemble(root, spans) for root, spans in raw]

    def slow_spans(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Slow-op audit entries, newest first."""
        with self._lock:
            out = list(self._slow)
        out.reverse()
        return out[:limit] if limit is not None else out

    @property
    def active_span_count(self) -> int:
        """Unfinished spans of still-active traces (leak detector)."""
        with self._lock:
            return sum(
                1
                for spans in self._active.values()
                for span in spans.values()
                if span.duration_ms is None
            )

    def status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans_started": self.spans_started,
                "spans_finished": self.spans_finished,
                "spans_dropped": self.spans_dropped,
                "active_traces": len(self._active),
                "retained_traces": len(self._traces),
                "slow_spans": len(self._slow),
                "slow_threshold_ms": self.slow_threshold_ms,
            }


__all__ = ["Span", "SpanContext", "Tracer"]
