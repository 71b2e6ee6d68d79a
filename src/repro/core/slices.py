"""Network-slice model: SLAs, requests, PLMN mapping and slice lifecycle.

The demo maps each admitted network slice onto a dedicated PLMN
(Public Land Mobile Network) broadcast by the MOCN-sharing eNBs, because
no commercial slicing equipment existed in 2018.  We reproduce that
design decision: :class:`PlmnPool` hands out PLMN identities and each
:class:`NetworkSlice` carries the PLMN its UEs attach to.
"""

from __future__ import annotations

import enum
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class SliceError(RuntimeError):
    """Base class for slice-model errors."""


class PlmnPoolExhausted(SliceError):
    """Raised when no PLMN identity is free for a new slice."""


class IllegalTransition(SliceError):
    """Raised on a slice state-machine violation."""


class ServiceType(enum.Enum):
    """Service archetypes used by the demo's heterogeneous requests.

    ``EMBB``/``URLLC``/``MMTC`` are the standard 5G service classes;
    ``AUTOMOTIVE`` and ``EHEALTH`` are the two vertical industries the
    paper's introduction calls out explicitly.
    """

    EMBB = "embb"
    URLLC = "urllc"
    MMTC = "mmtc"
    AUTOMOTIVE = "automotive"
    EHEALTH = "ehealth"


@dataclass(frozen=True)
class PLMN:
    """A Public Land Mobile Network identity (MCC + MNC)."""

    mcc: str
    mnc: str

    def __post_init__(self) -> None:
        if len(self.mcc) != 3 or not self.mcc.isdigit():
            raise SliceError(f"MCC must be 3 digits, got {self.mcc!r}")
        if len(self.mnc) not in (2, 3) or not self.mnc.isdigit():
            raise SliceError(f"MNC must be 2-3 digits, got {self.mnc!r}")

    @property
    def plmn_id(self) -> str:
        """Concatenated MCC+MNC string, e.g. ``"00101"``."""
        return self.mcc + self.mnc

    def __str__(self) -> str:
        return self.plmn_id


class PlmnPool:
    """Finite pool of PLMN identities available for slice mapping.

    MOCN limits how many PLMNs an eNB can broadcast (6 in Rel-11 SIBs);
    the pool size therefore bounds how many slices can be *concurrently
    installed*, independent of resource capacity.

    Identities are built only when handed out, in one free queue's order
    (every scenario digest depends on which PLMN a slice gets): the
    never-issued by ordinal, then the released by release time.
    """

    def __init__(self, mcc: str = "001", size: int = 6, first_mnc: int = 1) -> None:
        if size <= 0:
            raise SliceError(f"pool size must be positive, got {size}")
        if not (len(mcc) == 3 and mcc.isdigit()):
            raise SliceError(f"MCC must be 3 digits, got {mcc!r}")
        self._base_mcc, self._first_mnc, self._size = int(mcc), int(first_mnc), int(size)
        self._next = 0  # lowest ordinal never handed out
        self._claimed_ahead: set = set()  # ordinals past _next a claim took
        self._released: "OrderedDict[str, PLMN]" = OrderedDict()
        self._allocated: Dict[str, PLMN] = {}
        self._holders: Dict[str, str] = {}  # plmn_id -> slice_id

    def _mcc_mnc(self, index: int) -> Tuple[str, str]:
        # One MCC carries at most 1000 MNCs (00-999); a fleet-scale
        # pool (the 256-eNB sweep needs 6 * 256 identities) rolls the
        # overflow into consecutive test-range MCCs, exactly how a
        # real operator exhausting an MCC's MNC space provisions more.
        ordinal = self._first_mnc + index
        return f"{(self._base_mcc + ordinal // 1000) % 1000:03d}", f"{ordinal % 1000:02d}"

    def _index_of(self, plmn_id: str) -> Optional[int]:
        """The ordinal whose identity is ``plmn_id``, if this pool has one,
        by arithmetic: an MNC is canonical in two digits below 100."""
        if len(plmn_id) in (5, 6) and plmn_id.isascii() and plmn_id.isdecimal():
            mnc = int(plmn_id[3:])
            index = (int(plmn_id[:3]) - self._base_mcc) % 1000 * 1000 + mnc - self._first_mnc
            if 0 <= index < self._size and len(plmn_id) == (5 if mnc < 100 else 6):
                return index
        return None

    @property
    def capacity(self) -> int:
        """Total PLMN identities managed by the pool."""
        return self._size

    @property
    def available(self) -> int:
        """PLMN identities currently free."""
        return self._size - self._next - len(self._claimed_ahead) + len(self._released)

    def allocate(self, slice_id: str) -> PLMN:
        """Reserve a PLMN for ``slice_id``.

        Raises:
            PlmnPoolExhausted: If every identity is in use.
            SliceError: If the slice already holds a PLMN.
        """
        if slice_id in self._allocated:
            raise SliceError(f"slice {slice_id} already holds PLMN")
        while self._next in self._claimed_ahead:
            self._claimed_ahead.remove(self._next)
            self._next += 1
        if self._next < self._size:
            plmn = PLMN(*self._mcc_mnc(self._next))
            self._next += 1
        elif self._released:
            plmn = self._released.popitem(last=False)[1]
        else:
            raise PlmnPoolExhausted(
                f"all {len(self._allocated)} PLMN identities in use"
            )
        self._allocated[slice_id] = plmn
        self._holders[plmn.plmn_id] = slice_id
        return plmn

    def claim(self, slice_id: str, plmn_id: str) -> PLMN:
        """Reserve a *specific* PLMN for ``slice_id`` (crash recovery:
        the slice already broadcasts this identity on the surviving
        eNBs, so the rebuilt pool must hand back the same one).

        Raises:
            SliceError: If the identity is unknown to the pool, or held
                by a different slice.
        """
        held = self._allocated.get(slice_id)
        if held is not None:
            if held.plmn_id == plmn_id:
                return held  # already claimed (idempotent re-adoption)
            raise SliceError(
                f"slice {slice_id} already holds PLMN {held.plmn_id}, not {plmn_id}"
            )
        holder = self._holders.get(plmn_id)
        if holder is not None:
            raise SliceError(f"PLMN {plmn_id} is held by slice {holder}")
        plmn = self._released.pop(plmn_id, None)
        if plmn is None:  # not held, not released: never issued, if ours
            index = self._index_of(plmn_id)
            if index is None:
                raise SliceError(f"PLMN {plmn_id} is not managed by this pool")
            self._claimed_ahead.add(index)
            plmn = PLMN(plmn_id[:3], plmn_id[3:])
        self._allocated[slice_id] = plmn
        self._holders[plmn_id] = slice_id
        return plmn

    def release(self, slice_id: str) -> None:
        """Return the PLMN held by ``slice_id`` to the pool."""
        plmn = self._allocated.pop(slice_id, None)
        if plmn is None:
            raise SliceError(f"slice {slice_id} holds no PLMN")
        del self._holders[plmn.plmn_id]
        self._released[plmn.plmn_id] = plmn

@dataclass(frozen=True)
class SLA:
    """Service-level agreement attached to a slice request.

    These are exactly the knobs the demo dashboard exposes: slice time
    duration, maximum allowed latency, expected throughput, the price the
    tenant is willing to pay, and the penalty expected per violation.

    Attributes:
        throughput_mbps: Expected downlink throughput on the access network.
        max_latency_ms: End-to-end latency bound (RAN + transport + DC).
        duration_s: Requested slice lifetime in seconds.
        availability: Fraction of monitoring epochs that must meet the
            throughput target (0 < availability ≤ 1).
    """

    throughput_mbps: float
    max_latency_ms: float
    duration_s: float
    availability: float = 0.95

    def __post_init__(self) -> None:
        if self.throughput_mbps <= 0:
            raise SliceError(f"throughput must be positive, got {self.throughput_mbps}")
        if self.max_latency_ms <= 0:
            raise SliceError(f"latency bound must be positive, got {self.max_latency_ms}")
        if self.duration_s <= 0:
            raise SliceError(f"duration must be positive, got {self.duration_s}")
        if not 0.0 < self.availability <= 1.0:
            raise SliceError(f"availability must be in (0, 1], got {self.availability}")


_request_counter = itertools.count(1)


def ensure_request_counter_at_least(ordinal: int) -> None:
    """Advance the auto-id counter past ``ordinal``.

    Crash recovery calls this with the highest journaled request
    ordinal: a fresh process restarts the counter at 1, and re-issuing
    a recovered id to a brand-new request would collide two slices on
    one ``slice_id``.
    """
    global _request_counter
    current = next(_request_counter)
    _request_counter = itertools.count(max(current, int(ordinal) + 1))


def peek_request_counter() -> int:
    """The next auto-assigned request ordinal, without consuming it —
    checkpointed so a snapshot-only restore can still advance the
    counter past every id ever issued."""
    global _request_counter
    current = next(_request_counter)
    _request_counter = itertools.count(current)
    return current


@dataclass
class SliceRequest:
    """A tenant's request for an end-to-end network slice.

    Attributes:
        tenant_id: Requesting vertical/tenant.
        service_type: Archetype used to pick traffic model and defaults.
        sla: The SLA (duration, latency, throughput, availability).
        price: One-off revenue collected if the slice is admitted.
        penalty_rate: Money forfeited per SLA-violation epoch.
        arrival_time: Simulation time the request was submitted.
        n_users: Expected number of UEs attaching to the slice.
        priority: QoS class for congestion-time arbitration (higher wins
            spare capacity first); defaults by service type — URLLC 3,
            automotive/e-health 2, eMBB/mMTC 1.
        request_id: Unique id (auto-assigned when omitted).
    """

    tenant_id: str
    service_type: ServiceType
    sla: SLA
    price: float
    penalty_rate: float
    arrival_time: float = 0.0
    n_users: int = 10
    priority: int = 0
    request_id: str = field(default="")

    #: Default QoS priority per service class (used when priority is 0).
    DEFAULT_PRIORITIES = {
        ServiceType.URLLC: 3,
        ServiceType.AUTOMOTIVE: 2,
        ServiceType.EHEALTH: 2,
        ServiceType.EMBB: 1,
        ServiceType.MMTC: 1,
    }

    def __post_init__(self) -> None:
        if not self.request_id:
            self.request_id = f"req-{next(_request_counter):06d}"
        if self.price < 0:
            raise SliceError(f"price must be non-negative, got {self.price}")
        if self.penalty_rate < 0:
            raise SliceError(f"penalty must be non-negative, got {self.penalty_rate}")
        if self.n_users <= 0:
            raise SliceError(f"n_users must be positive, got {self.n_users}")
        if self.priority < 0:
            raise SliceError(f"priority must be non-negative, got {self.priority}")
        if self.priority == 0:
            self.priority = self.DEFAULT_PRIORITIES[self.service_type]


def slice_id_for(request_id: str) -> str:
    """The slice id a request maps onto (single source of truth — the
    northbound layer derives installed-ness from it too)."""
    return request_id.replace("req-", "slice-")


class SliceState(enum.Enum):
    """Lifecycle of a network slice inside the orchestrator."""

    PENDING = "pending"
    ADMITTED = "admitted"
    DEPLOYING = "deploying"
    ACTIVE = "active"
    EXPIRED = "expired"
    REJECTED = "rejected"
    CANCELLED = "cancelled"
    FAILED = "failed"


_LEGAL_TRANSITIONS: Dict[SliceState, frozenset] = {
    SliceState.PENDING: frozenset({SliceState.ADMITTED, SliceState.REJECTED}),
    SliceState.ADMITTED: frozenset({SliceState.DEPLOYING, SliceState.CANCELLED, SliceState.FAILED}),
    SliceState.DEPLOYING: frozenset({SliceState.ACTIVE, SliceState.CANCELLED, SliceState.FAILED}),
    SliceState.ACTIVE: frozenset({SliceState.EXPIRED, SliceState.FAILED}),
    SliceState.EXPIRED: frozenset(),
    SliceState.REJECTED: frozenset(),
    SliceState.CANCELLED: frozenset(),
    SliceState.FAILED: frozenset(),
}


class NetworkSlice:
    """An instantiated (or in-flight) end-to-end network slice.

    Carries the request it answers, the PLMN it is mapped onto, the
    per-domain allocation once deployed, and a strict state machine so
    tests can assert lifecycle legality.
    """

    def __init__(self, request: SliceRequest) -> None:
        self.request = request
        self.slice_id = slice_id_for(request.request_id)
        self.state = SliceState.PENDING
        self.plmn: Optional[PLMN] = None
        self.allocation = None  # EndToEndAllocation, set by the allocator
        self.admitted_at: Optional[float] = None
        self.active_at: Optional[float] = None
        self.expired_at: Optional[float] = None
        self.violation_epochs = 0
        self.served_epochs = 0
        self.history: list[tuple[float, SliceState]] = [(request.arrival_time, SliceState.PENDING)]

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def transition(self, new_state: SliceState, at_time: float) -> None:
        """Move to ``new_state``, enforcing lifecycle legality.

        Raises:
            IllegalTransition: If the move is not permitted from the
                current state.
        """
        if new_state not in _LEGAL_TRANSITIONS[self.state]:
            raise IllegalTransition(
                f"{self.slice_id}: {self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        self.history.append((at_time, new_state))
        if new_state is SliceState.ADMITTED:
            self.admitted_at = at_time
        elif new_state is SliceState.ACTIVE:
            self.active_at = at_time
        elif new_state is SliceState.EXPIRED:
            self.expired_at = at_time

    def go_live(self, admitted_at: float, active_at: Optional[float] = None) -> None:
        """:meth:`transition` a PENDING slice to ADMITTED and DEPLOYING at
        ``admitted_at``, and ACTIVE at ``active_at`` if given: one check."""
        if self.state is not SliceState.PENDING:
            raise IllegalTransition(f"{self.slice_id}: {self.state.value} -> admitted")
        self.state, self.admitted_at = SliceState.DEPLOYING, admitted_at
        self.history += [(admitted_at, SliceState.ADMITTED), (admitted_at, SliceState.DEPLOYING)]
        if active_at is not None:
            self.state, self.active_at = SliceState.ACTIVE, active_at
            self.history.append((active_at, SliceState.ACTIVE))

    def end_time(self) -> Optional[float]:
        """Absolute time the slice should expire (None before activation)."""
        if self.active_at is None:
            return None
        return self.active_at + self.request.sla.duration_s

    def violation_ratio(self) -> float:
        """Fraction of served monitoring epochs that violated the SLA."""
        if self.served_epochs == 0:
            return 0.0
        return self.violation_epochs / self.served_epochs

    def record_epoch(self, violated: bool) -> None:
        """Account one monitoring epoch toward the availability SLA."""
        self.served_epochs += 1
        if violated:
            self.violation_epochs += 1

    def sla_met(self) -> bool:
        """Whether the availability SLA holds so far.

        The SLA permits up to ``1 - availability`` of epochs to violate
        the throughput target; a slice with no served epochs trivially
        meets its SLA.
        """
        return self.violation_ratio() <= (1.0 - self.request.sla.availability) + 1e-12

    def to_dict(self) -> dict:
        """JSON-friendly summary used by the dashboard and REST API."""
        return {
            "slice_id": self.slice_id,
            "tenant": self.request.tenant_id,
            "service_type": self.request.service_type.value,
            "state": self.state.value,
            "plmn": str(self.plmn) if self.plmn else None,
            "throughput_mbps": self.request.sla.throughput_mbps,
            "max_latency_ms": self.request.sla.max_latency_ms,
            "duration_s": self.request.sla.duration_s,
            "price": self.request.price,
            "penalty_rate": self.request.penalty_rate,
            "violation_epochs": self.violation_epochs,
            "served_epochs": self.served_epochs,
            "availability": self.request.sla.availability,
            "sla_met": self.sla_met(),
            "priority": self.request.priority,
        }

__all__ = [
    "IllegalTransition",
    "NetworkSlice",
    "PLMN",
    "PlmnPool",
    "PlmnPoolExhausted",
    "SLA",
    "ServiceType",
    "SliceError",
    "SliceRequest",
    "SliceState",
    "ensure_request_counter_at_least",
    "peek_request_counter",
    "slice_id_for",
]
