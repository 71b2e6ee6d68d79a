"""Bounded in-memory orchestration event log.

The northbound API's ``GET /v1/events`` feed is backed by this log: the
orchestrator emits an :class:`OrchestrationEvent` for every externally
observable lifecycle step (admission, rejection, activation, SLA
violation, reconfiguration, path repair, teardown) and tenants poll the
feed with a ``since`` cursor instead of scraping the dashboard snapshot.

The log is deliberately bounded (a deque): it is a *feed*, not an audit
trail — consumers that fall further behind than ``capacity`` events see
a gap, exactly like a Kafka topic with retention.  Sequence numbers are
monotonically increasing and never reused, so a consumer can detect the
gap by comparing the first returned ``seq`` with its cursor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional


class EventLogError(RuntimeError):
    """Raised on event-log misuse."""


@dataclass(frozen=True)
class OrchestrationEvent:
    """One externally visible orchestration event.

    Attributes:
        seq: Monotonic sequence number (the feed cursor).
        time: Simulation time the event occurred.
        event_type: Dotted event name, e.g. ``"slice.admitted"``.
        slice_id: Subject slice (None for system-wide events).
        tenant_id: Owning tenant (None when not slice-scoped).
        data: Small JSON-safe payload with event-specific details.
    """

    seq: int
    time: float
    event_type: str
    slice_id: Optional[str] = None
    tenant_id: Optional[str] = None
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-friendly form served by ``GET /v1/events``."""
        return {
            "seq": self.seq,
            "time": self.time,
            "type": self.event_type,
            "slice_id": self.slice_id,
            "tenant_id": self.tenant_id,
            "data": dict(self.data),
        }


class EventLog:
    """Append-only bounded log with monotonically increasing cursors."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise EventLogError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._events: Deque[OrchestrationEvent] = deque(maxlen=self.capacity)
        self._next_seq = 1
        #: Optional durability tee: called with every :meth:`emit`-ted
        #: event (the orchestrator journals it, which is what backs the
        #: ``GET /v1/events?after_lsn=`` durable cursor), never an
        #: :meth:`append`-ed one (its transition's record carries it).
        self.sink: Optional[Callable[[OrchestrationEvent], None]] = None
        #: Optional control-plane observability sink (emit counter +
        #: buffered-depth gauge); ``None`` keeps emit untouched.
        self.obs = None

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 when empty)."""
        return self._next_seq - 1

    @property
    def first_seq(self) -> int:
        """Sequence number of the oldest retained event (0 when empty)."""
        return self._events[0].seq if self._events else 0

    def emit(self, *args: object, **data: object) -> OrchestrationEvent:
        """:meth:`append` one event and hand it to the :attr:`sink`."""
        event = self.append(*args, **data)
        if self.sink is not None:
            self.sink(event)
        return event

    def append(
        self,
        time: float,
        event_type: str,
        slice_id: Optional[str] = None,
        tenant_id: Optional[str] = None,
        **data: object,
    ) -> OrchestrationEvent:
        """Append one event without the :attr:`sink`; old events are
        evicted beyond ``capacity``."""
        event = OrchestrationEvent(
            seq=self._next_seq,
            time=time,
            event_type=event_type,
            slice_id=slice_id,
            tenant_id=tenant_id,
            data=data,
        )
        self._next_seq += 1
        self._events.append(event)
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.counter_add("events.emitted")
            obs.gauge_set("queue.events_buffered", float(len(self._events)))
        return event

    def resume_from(self, seq: int) -> None:
        """Continue numbering after ``seq`` (crash recovery: consumers
        hold cursors into the pre-crash feed, so seq numbers must keep
        rising monotonically across the restart)."""
        self._next_seq = max(self._next_seq, int(seq) + 1)

    def since(
        self, cursor: int = 0, limit: Optional[int] = None
    ) -> List[OrchestrationEvent]:
        """Events with ``seq > cursor``, oldest first, at most ``limit``."""
        if cursor < 0:
            raise EventLogError(f"cursor must be non-negative, got {cursor}")
        out = [e for e in self._events if e.seq > cursor]
        if limit is not None:
            out = out[: max(0, int(limit))]
        return out


__all__ = ["EventLog", "EventLogError", "OrchestrationEvent"]
