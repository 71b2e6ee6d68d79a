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

A journaled event carries its record's LSN (rising with ``seq``), so the
log serves a durable ``after_lsn`` cursor it covers; the journal serves
the rest.  Both cursors walk the log from its newest end to the first
event at or below the cursor: a poll costs what it returns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional


class EventLogError(RuntimeError):
    """Raised on event-log misuse."""


@dataclass
class OrchestrationEvent:
    """One externally visible orchestration event.

    Attributes:
        seq: Monotonic sequence number (the feed cursor).
        time: Simulation time the event occurred.
        event_type: Dotted event name, e.g. ``"slice.admitted"``.
        slice_id: Subject slice (None for system-wide events).
        tenant_id: Owning tenant (None when not slice-scoped).
        data: Small JSON-safe payload with event-specific details.
        lsn: LSN of the journal record that carried the event (0: none).
    """

    seq: int
    time: float
    event_type: str
    slice_id: Optional[str] = None
    tenant_id: Optional[str] = None
    data: Dict[str, object] = field(default_factory=dict)
    lsn: int = 0

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
        #: The highest LSN among events evicted beyond ``capacity``.
        self.evicted_lsn = 0
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
        if len(self._events) == self.capacity and self._events[0].lsn:  # LSNs rise with seq
            self.evicted_lsn = self._events[0].lsn
        self._events.append(event)
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.counter_add("events.emitted")
            obs.gauge_set("queue.events_buffered", float(len(self._events)))
        return event

    def append_many(self, time: float, event_type: str, rows: List[tuple]) -> None:
        """:meth:`append` one ``event_type`` event at ``time`` per
        ``(slice_id, tenant_id, data)`` row, in order, as one batch: the
        same events, sequence numbers and evictions."""
        seq, events = self._next_seq, self._events
        batch = [
            OrchestrationEvent(seq + offset, time, event_type, slice_id, tenant_id, data)
            for offset, (slice_id, tenant_id, data) in enumerate(rows)
        ]
        self._next_seq += len(batch)
        # The held events the batch pushes out, oldest first (its own carry no LSN).
        for event in islice(events, max(len(events) + len(batch) - self.capacity, 0)):
            self.evicted_lsn = event.lsn or self.evicted_lsn
        events.extend(batch)
        obs = self.obs
        if obs is not None and obs.enabled and batch:
            obs.counter_add("events.emitted", float(len(batch)))
            obs.gauge_set("queue.events_buffered", float(len(events)))

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
        out = self._after(attrgetter("seq"), cursor)
        return out if limit is None else out[: max(0, int(limit))]

    def after_lsn(self, lsn: int) -> List[OrchestrationEvent]:
        """Retained journaled events with an LSN past ``lsn``, oldest first."""
        return self._after(attrgetter("lsn"), lsn)

    def _after(self, position: Callable, cursor: int) -> List[OrchestrationEvent]:
        """Events past ``cursor`` by ``position`` (rising with seq; 0 skipped), newest-in walk."""
        out = []
        for event in reversed(self._events):
            at = position(event)
            if at > cursor:
                out.append(event)
            elif at:
                break
        out.reverse()
        return out


__all__ = ["EventLog", "EventLogError", "OrchestrationEvent"]
