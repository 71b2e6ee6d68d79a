"""The orchestrator's durable image, written in one module: the
write-ahead hooks every transition, feed event and compensation goes
through, and the checkpoint image (the
:class:`~repro.store.codec.ReplayState` shape) built off live state.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Set, Tuple

from repro.core.events import OrchestrationEvent
from repro.core.slices import SliceRequest, SliceState, peek_request_counter
from repro.store.codec import request_to_dict
from repro.store.snapshot import LiveFragments, encode_member
from repro.store.store import StoreError


def live_image(request: SliceRequest, inputs: tuple) -> Dict[str, Any]:
    """A live slice's image (:attr:`ReplayState.live`) from its request
    and ``inputs`` — (status, SLA throughput, PLMN id, fraction,
    ``installed_at``, ``activated_at``, window, reservation ``(domain,
    id)`` pairs): every image value that changes while the slice lives."""
    status, _, plmn, fraction, installed_at, activated_at, window, reservations = inputs
    return {
        "request": request_to_dict(request), "plmn": plmn, "fraction": fraction,
        "status": status, "installed_at": installed_at, "activated_at": activated_at,
        "window": list(window) if window else None, "reservations": dict(reservations),
    }


class DurableImage:
    """The journal hooks and the checkpoint image of one orchestrator,
    which reads, and never writes, the live state it is handed: the
    live fleet's slice runtimes, the calendar, the admission queue, the
    pending advance bookings and the tenant quotas."""

    def __init__(
        self, store: Any, sim: Any, events: Any, calendar: Any, fleet: Any,
        queue: List[tuple], advance: Dict[str, Tuple[SliceRequest, float]],
        quotas: Dict[str, Any],
    ) -> None:
        self.store = store
        self.sim = sim
        self.events = events
        self.calendar = calendar
        self.runtimes: Dict[str, Any] = fleet.runtimes
        self.queue = queue
        self.advance = advance
        self.quotas = quotas
        #: Extra state sections (name → provider) merged into every
        #: checkpoint — the broker registers its open window here.
        self.sections: Dict[str, Callable[[], dict]] = {}
        #: The live slices' encoded images, reused by the next checkpoint
        #: for every slice whose image inputs did not change.
        self.fragments = LiveFragments()
        #: Slices whose image inputs may have moved since the last
        #: checkpoint, which the fleet's touches name (with a store).
        self.changed: Set[str] = set()
        if store.enabled:
            fleet.changed = self.changed

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
        return self.store.append(record_type, time=self.sim.now, **data)

    def journal_event(self, event: OrchestrationEvent) -> None:
        """EventLog sink: journal an event no transition raises (backs
        the durable ``GET /v1/events?after_lsn=`` cursor)."""
        self.store.append("event.emitted", time=event.time, event=event.to_dict())

    def journal_driver_record(
        self, record_type: str, domain: str, slice_id: str, reservation_id: str, **data: Any
    ) -> None:
        """Journal a reservation transition no job's trail carries — a
        straggler the planner compensated after its job settled, or an
        orphan a recovery compensated.  Called from whichever thread
        that compensation landed on, possibly a backend's own (the
        journal is thread-safe)."""
        self.store.append(
            record_type, time=self.sim.now, domain=domain, slice_id=slice_id,
            reservation_id=reservation_id, **data,
        )

    def _live_inputs(self, slice_ids: Iterable[str]) -> Iterator[Tuple[str, tuple, SliceRequest]]:
        """(slice id, image inputs, request) of each live slice of
        ``slice_ids``: the inputs are the values its image reads that
        change while it lives (see :func:`live_image`), compared by value."""
        now, runtimes = self.sim.now, self.runtimes
        for slice_id in slice_ids:
            runtime = runtimes[slice_id]
            network_slice = runtime.network_slice
            request = network_slice.request
            booking = self.calendar.get(request.request_id)
            yield slice_id, (
                "active" if network_slice.state is SliceState.ACTIVE else "installed",
                request.sla.throughput_mbps,
                network_slice.plmn.plmn_id if network_slice.plmn else None,
                runtime.effective_fraction,
                network_slice.admitted_at if network_slice.admitted_at is not None else now,
                network_slice.active_at,
                (booking.start, booking.end) if booking else None,
                tuple((domain, r.reservation_id) for domain, r in runtime.reservations.items()),
            ), request

    def state(self) -> dict:
        """The full-state checkpoint image (the
        :class:`~repro.store.codec.ReplayState` shape): live slices,
        the admission queue, pending advance bookings, tenant quotas,
        and any registered extra sections (the broker's window)."""
        return {**self._sections(), "live": {
            slice_id: live_image(request, inputs)
            for slice_id, inputs, request in self._live_inputs(self.runtimes)
        }}

    def _sections(self) -> dict:
        """:meth:`state` but for its ``live`` section."""
        state = {
            "time": self.sim.now,
            "in_flight": {},
            "queued": {request.request_id: request_to_dict(request) for request, _, _ in self.queue},
            "advance": {
                request_id: {"request": request_to_dict(request), "start_time": start_time}
                for request_id, (request, start_time) in self.advance.items()
            },
            "quotas": {tenant: asdict(quota) for tenant, quota in self.quotas.items()},
            "last_event_seq": self.events.last_seq,
            # High-water mark of issued request ordinals: a snapshot-only
            # restore must never re-issue an id, even when every slice
            # that carried it already terminated.
            "last_request_ordinal": peek_request_counter() - 1,
        }
        for name, provider in self.sections.items():
            state[name] = provider()
        return state

    def checkpoint(self) -> dict:
        """Write a full-state snapshot and compact the journal: the bytes
        of :meth:`state`, with only the live slices touched since the last
        checkpoint imaged (encoded where their inputs changed).

        Raises:
            StoreError: When durability is disabled.
        """
        changed, runtimes = self.changed, self.runtimes
        held, gone = changed & runtimes.keys(), changed - runtimes.keys()
        live = self.fragments.refresh(self._live_inputs(held), gone, live_image)
        changed.clear()
        lsn = self.store.checkpoint(self._sections(), live)
        return {
            "checkpoint_lsn": lsn,
            "time": self.sim.now,
            "records_since_checkpoint": self.store.records_since_checkpoint,
            "fragments_encoded": self.fragments.encoded,
        }

    def verify(self) -> None:
        """Check the held fragments against a fresh :meth:`state`: each
        slice untouched since the last checkpoint is held iff it is live
        (never without a store), as the fragment of its image now.

        Raises:
            StoreError: On the first slice whose held image drifted.
        """
        pending, live = self.changed, self.state()["live"] if self.store.enabled else {}
        held = {s: fragment for s, (_, fragment) in self.fragments.entries.items()}
        for slice_id in (held.keys() | live.keys()) - pending:
            image = live.get(slice_id)
            if held.get(slice_id) != (image and encode_member(slice_id, image)):
                raise StoreError(f"{slice_id}: its held image is not its live one")


__all__ = ["DurableImage", "live_image"]
