"""Journal payload codec + the deterministic replay fold.

Two halves:

1. **Codec** — (de)serialization of the domain objects the journal
   carries: :class:`~repro.core.slices.SliceRequest` round-trips
   through plain dicts, and :func:`json_default` coerces the numpy
   scalars that leak out of domain telemetry into JSON natives.

2. **Replay fold** — :class:`ReplayState`, the pure in-memory image of
   the durable control plane, and its one derivation: the leader folds
   every record it appends (:class:`~repro.store.image.DurableImage`)
   and checkpoints that fold, a standby folds what it tails, and
   ``ReplayState.restore(snapshot, tail)`` folds a snapshot (if any)
   plus the journal tail into the state a recovering orchestrator must
   rebuild.  The fold is a deterministic function of its inputs (the
   replay-determinism property test pins this down by comparing
   :meth:`ReplayState.digest` across repeated folds of the same journal).

The fold reasons only over record payloads, never the live
orchestrator, so it can run in benchmarks (``bench_d12_recovery``), in
tests, and in the recovery path without a testbed.

Record vocabulary (see ``docs/ARCHITECTURE.md`` for the full matrix),
one record per state transition.  ``+event``: the record carries the
feed event the transition raised (the durable ``after_lsn`` cursor
reads any record with an ``event`` field); ``+trail``: a batched job's
driver trail, every landed prepare/commit/rollback/release — not folded.
``image``: the record writes a ``request`` image when its fold holds
none for the request, else a ``request_id`` reference (``ref``).

===================== ==========================================================
``admission.enqueued`` read only: the previous format's request queued for
                       the next batched install (recovery installs it)
``broker.enqueued``    request queued in a broker window, until its
                       ``install.started`` or ``slice.rejected``; image
                       (ref when a recovery re-offers it)
``install.started``    install staged southbound (PLMN held, specs planned);
                       image for an online create, ref for a window winner,
                       a booking falling due or a recovery's queued install
``slice.installed``    install acknowledged; ref, +event ``slice.admitted``,
                       +trail with each id ``reservations`` names left out
``slice.activated``    slice went ACTIVE (expiry clock started), +event; both
                       are written by installs and activations only — a
                       recovery re-adopts in memory and journals its rebase
``slice.expired``      lifetime ended, resources released, +event
``slice.cancelled``    torn down before/while active, +event
``slice.rejected``     admission or install failure booked, +event, +trail
``slice.modified``     tenant rescale (new SLA throughput)
``slice.reconfigured`` overbooking loop resized the effective fraction, +event
``booking.committed``  advance reservation promised on the calendar; image
                       (ref when a recovery re-promises it)
``booking.cancelled``  advance reservation withdrawn, +event
``quota.set``          per-tenant quota changed
``event.emitted``      a feed event no transition raises (``sla.violation``,
                       ``slice.path_repaired``, ``driver.*``, ``lease.fenced``)
``driver.*``           southbound audit (``compensated`` stragglers) — not folded
``checkpoint.written`` snapshot landed (audit)
``recovery.rebased``   a restart re-adopted in memory: the clock ``shift``
                       (0: a recovery continues the shard's clock), the
                       ``lost`` slices, the windows and reservations of the
                       adopted in-flight installs; ``time`` is set here
``recovery.completed`` a restart reconciled (audit), +event
===================== ==========================================================

``time`` is the newest folded instant, except at a ``recovery.rebased``,
which sets it to the record's own.  A recovery continues the shard's
clock and journals ``shift`` 0, so nothing moves; an older one restarted
its clock, and the fold moves its image onto that clock by the shift.

A reference resolves against the table that holds the image
(:meth:`ReplayState.held_request`): the in-flight install of the
record's ``slice_id``, else ``broker_pending``, ``queued`` or
``advance``.  The fold hands that same dict on, so a request is decoded
once however many records name it.  A record names a request by id
alone only while its fold holds one for that id, which is why request
ids must be unique among pending and in-flight requests.

Format versions, declared once per file: a journal's first line is
``{"format":3}`` and a snapshot's object carries ``"format": 3``
(:data:`FORMAT_VERSION`).  A file that declares none is an older
format, and still folds: format 2 wrote every request image in full
and every ``slice.installed`` trail with all its ids; format 1, from
before one record per transition, also wrote every event as an
``event.emitted``, each trail as a ``driver.trail`` and each window
decision as a ``broker.decided`` record, after the decision's own
``install.started``/``slice.rejected`` — none folds beyond its
``event``.  A file declaring a newer format than this code's is
refused, never guessed at.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, TYPE_CHECKING

from repro.core.slices import SLA, ServiceType, SliceRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.journal import JournalRecord


def json_default(obj: Any) -> Any:
    """Coerce numpy scalars/arrays (and sets) into JSON-native values."""
    import numpy as np

    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


#: The journal and snapshot format this code writes (module docstring).
FORMAT_VERSION = 3
#: The format of a file that declares none.
UNDECLARED_FORMAT = 2


def prebuilt_encoder(item_separator: str, key_separator: str) -> Callable[[Any], str]:
    """``json.dumps(obj, sort_keys=True, default=json_default,
    separators=(item_separator, key_separator))``, byte for byte, as one
    encoder built here: ``JSONEncoder.encode`` builds a C encoder and a
    circular-reference memo on every call.  This one keeps no memo (a
    self-containing value recurses until ``RecursionError``); it needs
    the C accelerator, which CPython ships."""
    chunks = c_make_encoder(
        None, json_default, encode_basestring_ascii, None,
        key_separator, item_separator, True, False, True,
    )
    return lambda obj: "".join(chunks(obj, 0))


#: Compact canonical JSON: journal lines and :meth:`ReplayState.digest`.
encode_json = prebuilt_encoder(",", ":")


# ----------------------------------------------------------------------
# Request codec
# ----------------------------------------------------------------------
def request_to_dict(request: SliceRequest) -> Dict[str, Any]:
    """JSON-safe image of a slice request (full fidelity round-trip)."""
    return {
        "request_id": request.request_id,
        "tenant_id": request.tenant_id,
        "service_type": request.service_type.value,
        "throughput_mbps": float(request.sla.throughput_mbps),
        "max_latency_ms": float(request.sla.max_latency_ms),
        "duration_s": float(request.sla.duration_s),
        "availability": float(request.sla.availability),
        "price": float(request.price),
        "penalty_rate": float(request.penalty_rate),
        "arrival_time": float(request.arrival_time),
        "n_users": int(request.n_users),
        "priority": int(request.priority),
    }


def request_from_dict(payload: Dict[str, Any]) -> SliceRequest:
    """Rebuild the :class:`SliceRequest` a journal record captured."""
    return SliceRequest(
        tenant_id=payload["tenant_id"],
        service_type=ServiceType(payload["service_type"]),
        sla=SLA(
            throughput_mbps=payload["throughput_mbps"],
            max_latency_ms=payload["max_latency_ms"],
            duration_s=payload["duration_s"],
            availability=payload.get("availability", 0.95),
        ),
        price=payload["price"],
        penalty_rate=payload["penalty_rate"],
        arrival_time=payload.get("arrival_time", 0.0),
        n_users=payload.get("n_users", 10),
        priority=payload.get("priority", 0),
        request_id=payload["request_id"],
    )


def pack_trail(trail: Iterable[Any], reservations: Dict[str, str]) -> List[List[str]]:
    """A settled install's driver trail as ``slice.installed`` writes it:
    ``[kind, domain]`` where the entry's reservation is the one
    ``reservations`` names for its domain, else ``[kind, domain, id]``."""
    return [
        [kind, domain] if reservations.get(domain) == reservation_id
        else [kind, domain, reservation_id]
        for kind, domain, reservation_id in trail
    ]


def trail_of(data: Dict[str, Any]) -> List[tuple]:
    """A record's driver trail, every entry ``(kind, domain, reservation
    id)`` — a :func:`pack_trail` entry takes its id from ``reservations``."""
    reservations = data.get("reservations") or {}
    return [
        (entry[0], entry[1], entry[2] if len(entry) > 2 else reservations[entry[1]])
        for entry in data.get("trail") or ()
    ]


# ----------------------------------------------------------------------
# Replay fold
# ----------------------------------------------------------------------
@dataclass
class ReplayState:
    """Pure image of the durable control plane.

    Attributes:
        time: Simulation instant of the newest folded record (the
            "crash time" recovery rebases against); a
            ``recovery.rebased`` restarts it on the new clock.
        live: slice_id → image of an acknowledged install.  Image keys:
            ``request`` (request dict), ``plmn``, ``fraction``,
            ``status`` (``"installed"`` | ``"active"``),
            ``installed_at``, ``activated_at``, ``window``
            (``[start, end]`` calendar interval or None) and
            ``reservations`` (domain → reservation_id).
        in_flight: slice_id → image of an install that *started*
            (PLMN held, southbound work dispatched) but was never
            acknowledged — the reconciliation matrix decides its fate
            against driver ground truth.
        queued: request_id → request dict of admitted-but-uninstalled
            requests, filled by a recovery's rebase (and a previous
            format's records); the recovery installs them.
        broker_pending: request_id → request dict of requests sitting
            in a broker decision window that never flushed — the
            requests that used to die silently with the process.
            Recovery re-offers them to the admission path (their
            ``on_decision`` callbacks are gone with the process, but
            the admissions themselves survive).
        advance: request_id → ``{"request": ..., "start_time": ...}``
            of pending advance bookings.
        quotas: tenant_id → quota payload.
        last_event_seq: Highest northbound event seq folded (feed
            numbering resumes after it).
        last_request_ordinal: Highest auto-assigned request ordinal
            seen in *any* folded record — including slices that
            terminated before the crash, whose images are gone from
            ``live``.  Recovery advances the request-id counter past
            it so a recovered id is never re-issued to a new request.
        records_applied: Fold-size telemetry (excluded from the digest).
        changed: Slices whose ``live`` image a folded record changed,
            added or dropped since the leader's last checkpoint emptied
            it: the images that checkpoint re-encodes (excluded too).  A
            warm standby empties it after each poll: the slices its
            ready plane builds again.
    """

    time: float = 0.0
    live: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    in_flight: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    queued: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    broker_pending: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    advance: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    quotas: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    last_event_seq: int = 0
    last_request_ordinal: int = 0
    records_applied: int = 0
    changed: Set[str] = field(default_factory=set, compare=False, repr=False)

    def _note_ordinal(self, identifier: Optional[str]) -> None:
        """Raise the ordinal high-water mark to ``identifier``'s
        ``-<digits>`` suffix, if it has one: ``-(\\d+)$`` without a regex
        (a trailing newline is let through, as ``$`` lets it)."""
        if identifier:
            _, dash, digits = str(identifier).removesuffix("\n").rpartition("-")
            if dash and digits.isdecimal():
                self.last_request_ordinal = max(self.last_request_ordinal, int(digits))

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    @classmethod
    def restore(
        cls,
        snapshot: Optional[Dict[str, Any]],
        records: Iterable["JournalRecord"],
    ) -> "ReplayState":
        """Fold ``snapshot`` (may be None) plus the journal ``records``
        into the recovered state image."""
        state = cls.from_dict(snapshot) if snapshot else cls()
        for record in records:
            state.apply(record.record_type, record.time, record.data)
        return state

    def apply(self, kind: str, time: float, data: Dict[str, Any]) -> None:
        """Fold one journal record (its type, time and data) into the
        image: pure and deterministic.  A request dict is replaced, never
        written into (a warm standby's decoded requests rest on that); an
        image around one is written into, so a handed-off fold copies each."""
        self.time = max(self.time, time)
        self.records_applied += 1
        # Every record naming a request or slice advances the ordinal
        # high-water mark — terminated slices included, or a restart
        # would re-issue their ids.
        request = data.get("request")
        if isinstance(request, dict):
            self._note_ordinal(request.get("request_id"))
        self._note_ordinal(data.get("request_id"))
        self._note_ordinal(data.get("slice_id"))
        event = data.get("event")
        if event:
            self.last_event_seq = max(self.last_event_seq, int(event.get("seq", 0)))
        if kind == "admission.enqueued":
            request = data["request"]
            self.queued[request["request_id"]] = request
            # Only a previous format wrote it; the window's claim on the
            # request ends here.
            self.broker_pending.pop(request["request_id"], None)
        elif kind == "broker.enqueued":
            request = self._request_of(kind, data)
            self.broker_pending[request["request_id"]] = request
        elif kind == "install.started":
            request = self._request_of(kind, data)
            self.queued.pop(request["request_id"], None)
            self.broker_pending.pop(request["request_id"], None)
            self.advance.pop(request["request_id"], None)
            self.in_flight[data["slice_id"]] = {
                "request": request,
                "plmn": data.get("plmn"),
                "fraction": data.get("fraction", 1.0),
                "started_at": time,
            }
        elif kind == "slice.installed":
            request = self._request_of(kind, data)
            self.queued.pop(request["request_id"], None)
            self.advance.pop(request["request_id"], None)
            self.in_flight.pop(data["slice_id"], None)
            self.changed.add(data["slice_id"])
            self.live[data["slice_id"]] = {
                "request": request,
                "plmn": data.get("plmn"),
                "fraction": data.get("fraction", 1.0),
                "status": "installed",
                "installed_at": time,
                "activated_at": None,
                "window": data.get("window"),
                "reservations": dict(data.get("reservations") or {}),
            }
        elif kind == "slice.activated":
            image = self.live.get(data["slice_id"])
            if image is not None:
                image["status"] = "active"
                image["activated_at"] = time
                self.changed.add(data["slice_id"])
        elif kind in ("slice.expired", "slice.cancelled"):
            if self.live.pop(data["slice_id"], None) is not None:
                self.changed.add(data["slice_id"])
            self.in_flight.pop(data["slice_id"], None)
        elif kind == "slice.rejected":
            self.queued.pop(data.get("request_id"), None)
            self.broker_pending.pop(data.get("request_id"), None)
            self.advance.pop(data.get("request_id"), None)
            self.in_flight.pop(data.get("slice_id"), None)
        elif kind == "slice.modified":
            image = self.live.get(data["slice_id"])
            if image is not None:
                image["request"] = {**image["request"], "throughput_mbps": data["throughput_mbps"]}
                self.changed.add(data["slice_id"])
        elif kind == "slice.reconfigured":
            image = self.live.get(data["slice_id"])
            if image is not None:
                image["fraction"] = data["fraction"]
                self.changed.add(data["slice_id"])
        elif kind == "booking.committed":
            request = self._request_of(kind, data)
            self.advance[request["request_id"]] = {
                "request": request,
                "start_time": data["start_time"],
            }
        elif kind == "booking.cancelled":
            self.advance.pop(data.get("request_id"), None)
        elif kind == "quota.set":
            self.quotas[data["tenant_id"]] = {
                "max_active_slices": data.get("max_active_slices"),
                "max_aggregate_mbps": data.get("max_aggregate_mbps"),
            }
        elif kind == "recovery.rebased":
            self._rebase(time, data)
        # event.emitted, driver.*, checkpoint.written, recovery.completed:
        # the event (if any) above, else audit trail only — driver
        # *ground truth* is reconciled live, not replayed.

    def held_request(
        self, request_id: str, slice_id: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The request dict this image holds for a record naming
        ``request_id`` (and ``slice_id``), or None: the in-flight install
        of that slice, else the request pending in a window, queued, or
        booked ahead.  The writer and every fold resolve a reference
        here, so both hand on the same image."""
        image = self.in_flight.get(slice_id) if slice_id else None
        if image is not None and image["request"]["request_id"] == request_id:
            return image["request"]
        held = self.broker_pending.get(request_id) or self.queued.get(request_id)
        if held is None and (entry := self.advance.get(request_id)) is not None:
            held = entry["request"]
        return held

    def _request_of(self, kind: str, data: Dict[str, Any]) -> Dict[str, Any]:
        """The request a record carries: its image, or the one its
        ``request_id`` reference resolves to."""
        request = data.get("request")
        if request is None:
            request = self.held_request(data["request_id"], data.get("slice_id"))
            if request is None:
                raise ValueError(
                    f"{kind} refers to request {data['request_id']!r}, "
                    "which no folded record holds"
                )
        return request

    def _rebase(self, now: float, data: Dict[str, Any]) -> None:
        """Fold a recovery's in-memory re-adoption at ``now``, its first
        instant on the new clock, with recovery's and the adoption's own
        expressions (bit-equal floats).  The non-adopted in-flight
        installs and the bookings that fell due join ``queued`` here,
        in that order and ahead of what it held: this is the one
        decision of what a recovery installs, and it reads ``queued``
        back once the record is folded."""
        shift, crash_time = data["shift"], data["crash_time"]
        for slice_id in data["lost"]:
            self.live.pop(slice_id, None)
        # A recovery on the shard's one clock journals shift 0 and moves no
        # instant or window; an older one restarted the clock and moved all.
        for image in self.live.values() if shift else ():  # nothing moves at shift 0
            image["installed_at"] += shift
            if image["status"] == "active":
                image["activated_at"] += shift
            window = image.get("window")
            if window:
                image["window"] = [now, max(window[1] + shift, now + 1e-9)]
        requeued: Dict[str, Dict[str, Any]] = {}
        adopted = data["adopted_in_flight"]
        for slice_id, image in self.in_flight.items():
            request = image["request"]
            if slice_id not in adopted:
                requeued[request["request_id"]] = request
                continue
            self.live[slice_id] = {
                "request": request, "plmn": image["plmn"], "fraction": image["fraction"],
                "status": "installed", "installed_at": image["started_at"] + shift,
                "activated_at": None, **adopted[slice_id],
            }
        self.in_flight = {}
        self.changed.update(data["lost"], self.live)
        for request_id, entry in list(self.advance.items()):
            start_in_s = entry["start_time"] - crash_time
            if start_in_s <= 0:
                requeued[request_id] = self.advance.pop(request_id)["request"]
            else:
                entry["start_time"] = now + start_in_s
        self.queued = {**requeued, **self.queued}
        self.time = now
        self.last_event_seq = max(self.last_event_seq, int(data["last_event_seq"]))

    # ------------------------------------------------------------------
    # Snapshot round-trip + digest
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Snapshot-ready (and digest-canonical) form."""
        return {
            "time": self.time,
            "live": self.live,
            "in_flight": self.in_flight,
            "queued": self.queued,
            "broker_pending": self.broker_pending,
            "advance": self.advance,
            "quotas": self.quotas,
            "last_event_seq": self.last_event_seq,
            "last_request_ordinal": self.last_request_ordinal,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReplayState":
        return cls(
            time=float(payload.get("time", 0.0)),
            live={k: dict(v) for k, v in (payload.get("live") or {}).items()},
            in_flight={k: dict(v) for k, v in (payload.get("in_flight") or {}).items()},
            queued={k: dict(v) for k, v in (payload.get("queued") or {}).items()},
            broker_pending={
                k: dict(v)
                for k, v in (payload.get("broker_pending") or {}).items()
            },
            advance={k: dict(v) for k, v in (payload.get("advance") or {}).items()},
            quotas={k: dict(v) for k, v in (payload.get("quotas") or {}).items()},
            last_event_seq=int(payload.get("last_event_seq", 0)),
            last_request_ordinal=int(payload.get("last_request_ordinal", 0)),
        )

    def digest(self) -> str:
        """SHA-256 over the canonical JSON image.  Two folds of the
        same snapshot+journal must produce the same digest — the
        replay-determinism invariant."""
        return hashlib.sha256(encode_json(self.to_dict()).encode("utf-8")).hexdigest()


__all__ = [
    "FORMAT_VERSION", "ReplayState", "UNDECLARED_FORMAT", "encode_json", "json_default",
    "pack_trail", "prebuilt_encoder", "request_from_dict", "request_to_dict", "trail_of",
]
