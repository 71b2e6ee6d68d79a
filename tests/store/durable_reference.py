"""The durable state re-read from live objects: the reference the
leader's fold is checked against.

The leader derives its durable image one way only — by folding every
record it appends (``orch.durable.fold``), as a standby and a restart
fold what they read back.  This module derives it the other way, off
the slice runtimes and records, the calendar, the pending advance
bookings and the quota table, so a fold bug shows as a difference in
any leader test, not only after a failover.  A live plane queues no
admission: recovery installs what its fold queued before it returns.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.slices import SliceState, peek_request_counter
from repro.store.codec import ReplayState, request_to_dict


def live_images(orch) -> dict:
    """slice id → image (the :attr:`ReplayState.live` shape) of every
    live slice, in go-live order, read off its runtime, its slice record
    and its calendar window."""
    images = {}
    for slice_id, runtime in orch.fleet.runtimes.items():
        network_slice = runtime.network_slice
        request = network_slice.request
        booking = orch.calendar.get(request.request_id)
        admitted_at = network_slice.admitted_at
        images[slice_id] = {
            "request": request_to_dict(request),
            "plmn": network_slice.plmn.plmn_id if network_slice.plmn else None,
            "fraction": runtime.effective_fraction,
            "status": "active" if network_slice.state is SliceState.ACTIVE else "installed",
            "installed_at": admitted_at if admitted_at is not None else orch.sim.now,
            "activated_at": network_slice.active_at,
            "window": [booking.start, booking.end] if booking else None,
            "reservations": {
                domain: reservation.reservation_id
                for domain, reservation in runtime.reservations.items()
            },
        }
    return images


def live_state(orch) -> dict:
    """The whole durable state off live objects, in the
    :meth:`ReplayState.to_dict` shape but for the broker's window (which
    the orchestrator does not hold): what warm and cold recoveries of
    one store must agree on."""
    return {
        "time": orch.sim.now,
        "live": live_images(orch),
        "in_flight": {},
        "queued": {},
        "advance": {
            request_id: {"request": request_to_dict(request), "start_time": start_time}
            for request_id, (request, start_time) in orch._pending_advance.items()
        },
        "quotas": {tenant: asdict(quota) for tenant, quota in orch.quotas.items()},
        "last_event_seq": orch.events.last_seq,
        "last_request_ordinal": peek_request_counter() - 1,
    }


def check_durable(orch) -> None:
    """The leader's fold is what a restart would fold from its store
    (same digest) and what its live objects say: the live images, the
    advance bookings, the quotas and the feed's newest seq, with nothing
    in flight and nothing queued.  A memory-only orchestrator folds
    nothing.

    A window the calendar pruned (a reconfiguring epoch drops every
    window that ended) stays in the fold until its slice leaves, as no
    record drops it: there the fold's window must have ended.
    """
    fold = orch.durable.fold
    if not orch.store.enabled:
        assert fold == ReplayState() and not fold.changed
        return
    disk = ReplayState.restore(*orch.store.load())
    assert fold.digest() == disk.digest(), [
        (name, value, disk.to_dict()[name])
        for name, value in fold.to_dict().items() if value != disk.to_dict()[name]
    ]
    state = live_state(orch)
    live = state["live"]
    assert set(fold.live) == set(live)
    for slice_id, image in live.items():
        folded = fold.live[slice_id]
        if image["window"] is None and folded["window"] is not None:
            assert folded["window"][1] <= orch.sim.now, slice_id
            image = {**image, "window": folded["window"]}
        assert folded == image, slice_id
    for name in ("advance", "quotas", "last_event_seq"):
        assert getattr(fold, name) == state[name], name
    assert fold.in_flight == {} and fold.queued == {}


def check_queue_settled(orch, request_ids) -> None:
    """A recovery settles what its fold queued before it returns:
    nothing is left queued, and each of ``request_ids`` is live or
    journaled its ``slice.rejected``."""
    assert orch.durable.fold.queued == {}
    live = {s.request.request_id for s in orch.live_slices()}
    rejected = {
        record.data.get("request_id")
        for record in orch.store.records()
        if record.record_type == "slice.rejected"
    }
    assert [rid for rid in request_ids if rid not in live | rejected] == []
