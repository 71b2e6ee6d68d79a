"""The orchestrator's durable image, written in one module: the
write-ahead hooks every transition, feed event and compensation goes
through, and the one :class:`~repro.store.codec.ReplayState` they fold
— the fold standbys and recovery run — which a checkpoint writes.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.events import OrchestrationEvent
from repro.core.slices import peek_request_counter
from repro.store.codec import ReplayState
from repro.store.snapshot import encode_member


class DurableImage:
    """The journal hooks of one orchestrator and the durable state they
    fold: every record :meth:`journal` and :meth:`journal_event` append
    is applied to :attr:`fold` too, so the leader derives its image as
    a standby or a restart does, from the records alone."""

    def __init__(self, store: Any, sim: Any) -> None:
        self.store = store
        self.sim = sim
        #: The durable state, as folded from every record appended here.
        self.fold = ReplayState()
        #: slice id → its ``live`` member as the last checkpoint encoded it.
        self.fragments: Dict[str, str] = {}

    def seed(self, state: ReplayState) -> None:
        """Fold on from ``state`` (what a recovery restores from), before
        the recovery journals anything; the next checkpoint encodes
        every live image afresh."""
        self.fold, self.fragments = state, {}
        state.changed.update(state.live)

    def journal(
        self, record_type: str, event: OrchestrationEvent | None = None, **data: Any
    ) -> int:
        """Write-ahead one control-plane transition (no-op when the
        store is a :class:`~repro.store.store.NullStore`), carrying the
        feed ``event`` it raised: that event's durable LSN is this one."""
        if not self.store.enabled:
            return 0
        if event is not None:
            data["event"] = event.to_dict()
        now = self.sim.now
        lsn = self.store.append(record_type, time=now, **data)
        if lsn:  # a closed (killed, fenced) store drops the record
            self.fold.apply(record_type, now, data)
        return lsn

    def journal_event(self, event: OrchestrationEvent) -> None:
        """EventLog sink: journal an event no transition raises (backs
        the durable ``GET /v1/events?after_lsn=`` cursor)."""
        data = {"event": event.to_dict()}
        if self.store.append("event.emitted", time=event.time, **data):
            self.fold.apply("event.emitted", event.time, data)

    def journal_driver_record(
        self, record_type: str, domain: str, slice_id: str, reservation_id: str, **data: Any
    ) -> None:
        """Journal a reservation transition no job's trail carries — a
        straggler the planner compensated after its job settled, or a
        recovery's orphan undo.  Not folded: a ``driver.*`` record moves
        nothing the fold writes."""
        self.store.append(
            record_type, time=self.sim.now, domain=domain, slice_id=slice_id,
            reservation_id=reservation_id, **data,
        )

    def checkpoint(self) -> dict:
        """Write the fold as a full-state snapshot and compact the
        journal, re-encoding only the live images a folded record
        changed since the last checkpoint.

        Raises:
            StoreError: When durability is disabled.
        """
        fold, fragments = self.fold, self.fragments
        # The fold knows journaled instants and ids only; the clock and
        # the process-wide request counter may be past both.  A snapshot-
        # only restore must never re-issue an id, even when every slice
        # that carried it already terminated.
        fold.time = max(fold.time, self.sim.now)
        fold.last_request_ordinal = max(fold.last_request_ordinal, peek_request_counter() - 1)
        encoded = 0
        for slice_id in fold.changed:
            image = fold.live.get(slice_id)
            if image is None:
                fragments.pop(slice_id, None)
            else:
                fragments[slice_id] = encode_member(slice_id, image)
                encoded += 1
        fold.changed.clear()
        lsn = self.store.checkpoint(fold.to_dict(), fragments)
        return {
            "checkpoint_lsn": lsn,
            "time": fold.time,
            "records_since_checkpoint": self.store.records_since_checkpoint,
            "fragments_encoded": encoded,
        }


__all__ = ["DurableImage"]
