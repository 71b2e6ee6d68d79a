"""Service facade between the REST surface and the orchestrator core.

:class:`SliceService` is the single seam the v1 handlers talk
through.  It owns the three concerns an HTTP router should
not: building domain objects out of validated payloads, tenant scoping,
and the async *operation* resources that make the batch-window
:class:`~repro.core.broker.SliceBroker` reachable over the API —
``POST /v1/slices?mode=batch`` enqueues into the broker and hands back a
pollable operation that resolves when the decision window flushes.

Service-layer failures raise :class:`ServiceError` subclasses carrying
an HTTP status and a stable error code; the route layer renders them as
the structured error envelope.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.api.schemas import (
    BOOKING_CREATE,
    SLICE_CREATE,
    SLICE_MODIFY,
    ValidationError,
    WHAT_IF,
    parse_bool_param,
    parse_int_param,
)
from repro.core.admission import AdmissionDecision, TenantQuota
from repro.core.broker import SliceBroker
from repro.core.epoch import sim_gauges
from repro.core.events import OrchestrationEvent
from repro.core.orchestrator import Orchestrator, OrchestratorError
from repro.core.slices import (
    NetworkSlice,
    SLA,
    SliceError,
    SliceRequest,
    SliceState,
    slice_id_for,
)
from repro.traffic.patterns import TrafficProfile

DEFAULT_TENANT = "anonymous"

#: The id every what-if probe carries: fixed and outside the ``req-NNNNNN``
#: ordinals, so a probe draws nothing from the process-wide id counter.
WHAT_IF_REQUEST_ID = "whatif"

#: The ``state`` values ``GET /v1/slices`` filters by.
SLICE_STATES = [state.value for state in SliceState]


class ServiceError(Exception):
    """A service-layer failure with an HTTP status and stable code."""

    status = 500
    code = "internal_error"

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class NotFound(ServiceError):
    """The resource does not exist — or belongs to another tenant."""

    status = 404
    code = "not_found"


class Conflict(ServiceError):
    """The resource exists but its state forbids the operation."""

    status = 409
    code = "conflict"


class QuotaExceeded(ServiceError):
    """The tenant is at its quota; retry after slices expire (429)."""

    status = 429
    code = "quota_exceeded"


@dataclass
class Operation:
    """An asynchronous API operation (currently: batch slice creation).

    Lifecycle: ``pending`` → ``succeeded`` | ``failed`` when the broker
    window flushes and the admit/reject decision lands.
    """

    op_id: str
    kind: str
    request_id: str
    tenant_id: str
    created_at: float
    status: str = "pending"
    decision: Optional[AdmissionDecision] = None
    resolved_at: Optional[float] = None
    #: SLA throughput of the queued request (quota accounting).
    throughput_mbps: float = 0.0

    @property
    def done(self) -> bool:
        return self.status != "pending"

    def to_dict(self) -> dict:
        body: Dict[str, Any] = {
            "operation_id": self.op_id,
            "kind": self.kind,
            "status": self.status,
            "request_id": self.request_id,
            "tenant_id": self.tenant_id,
            "created_at": self.created_at,
            "resolved_at": self.resolved_at,
            "slice_id": self.decision.slice_id if self.decision else None,
        }
        if self.decision is not None:
            body["decision"] = {
                "request_id": self.decision.request_id,
                "admitted": self.decision.admitted,
                "reason": self.decision.reason,
                "slice_id": self.decision.slice_id,
            }
        else:
            body["decision"] = None
        return body


class OperationStore:
    """Bounded registry of async operations.

    ``capacity`` is a hard bound enforced on every insert: eviction
    prefers the oldest resolved operation but falls back to the oldest
    pending one when a burst of unresolved submissions alone exceeds
    the bound (that client's poll then 404s — the documented cost of
    overrunning the registry).
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self._ops: "OrderedDict[str, Operation]" = OrderedDict()
        self._counter = itertools.count(1)

    def _evict(self) -> None:
        while len(self._ops) > self.capacity:
            victim = next(
                (op_id for op_id, op in self._ops.items() if op.done),
                next(iter(self._ops)),
            )
            del self._ops[victim]

    def create(
        self,
        kind: str,
        request_id: str,
        tenant_id: str,
        now: float,
        throughput_mbps: float = 0.0,
    ) -> Operation:
        op = Operation(
            op_id=f"op-{next(self._counter):06d}",
            kind=kind,
            request_id=request_id,
            tenant_id=tenant_id,
            created_at=now,
            throughput_mbps=throughput_mbps,
        )
        self._ops[op.op_id] = op
        self._evict()
        return op

    def resolve(self, op_id: str, decision: AdmissionDecision, now: float) -> None:
        op = self._ops.get(op_id)
        if op is None:  # evicted under pressure — nothing to record
            return
        op.decision = decision
        op.status = "succeeded" if decision.admitted else "failed"
        op.resolved_at = now

    def get(self, op_id: str) -> Optional[Operation]:
        return self._ops.get(op_id)

    def list(self, tenant_id: Optional[str] = None) -> List[Operation]:
        ops = list(self._ops.values())
        if tenant_id is not None:
            ops = [op for op in ops if op.tenant_id == tenant_id]
        return ops


class SliceService:
    """Typed facade over :class:`Orchestrator` + :class:`SliceBroker`.

    Stateless over the orchestrator apart from its async operations:
    bookings and quotas are the orchestrator's tables, which it
    journals, checkpoints and recovers.

    Args:
        orchestrator: The live orchestrator.
        broker: Batch-window broker used by ``mode=batch`` submissions;
            one with the default 300 s window is created when omitted.
        default_quota: Quota applied to tenants without one of their own
            (None — the default — disables quota enforcement for them).
    """

    def __init__(
        self,
        orchestrator: Orchestrator,
        broker: Optional[SliceBroker] = None,
        default_quota: Optional[TenantQuota] = None,
    ) -> None:
        self.orchestrator = orchestrator
        self.broker = broker or SliceBroker(orchestrator)
        self.operations = OperationStore()
        self.default_quota = default_quota

    # ------------------------------------------------------------------
    # Quotas
    # ------------------------------------------------------------------
    def quota_for(self, tenant_id: str) -> Optional[TenantQuota]:
        """The quota applying to ``tenant_id`` (None = unlimited)."""
        return self.orchestrator.quotas.get(tenant_id, self.default_quota)

    def _request_installed(self, request_id: str) -> bool:
        """Whether a request's install already fired (a slice record —
        admitted or rejected — exists for it).  O(1)."""
        return self.orchestrator.has_slice(slice_id_for(request_id))

    def quota_usage(self, tenant_id: str) -> Dict[str, float]:
        """Current quota-relevant usage of a tenant.

        Counts live slices (ADMITTED/DEPLOYING/ACTIVE) *plus* queued
        future capacity — pending advance bookings and pending batch
        operations — otherwise a tenant could queue unlimited load
        through ``POST /v1/bookings`` or a broker window and blow past
        its quota when it lands.  Cost is O(live + queued), independent
        of the historical slice record.
        """
        live = [
            s.request.sla.throughput_mbps
            for s in self.orchestrator.live_slices()
            if s.request.tenant_id == tenant_id
        ]
        queued = [
            request.sla.throughput_mbps
            for request, _ in self.orchestrator.pending_bookings().values()
            if request.tenant_id == tenant_id
        ]
        queued += [
            op.throughput_mbps
            for op in self.operations.list(tenant_id)
            if not op.done and not self._request_installed(op.request_id)
        ]
        return {
            "active_slices": len(live) + len(queued),
            "aggregate_mbps": sum(live) + sum(queued),
        }

    def _enforce_quota(
        self, tenant_id: str, throughput_mbps: float, slices: int = 1
    ) -> None:
        """Reject adding ``slices`` slices and ``throughput_mbps`` Mb/s
        (a rescale adds 0 slices and its throughput delta) to a tenant
        that would then be over quota.

        Raises:
            QuotaExceeded: With a message naming the exhausted limit.
        """
        quota = self.quota_for(tenant_id)
        if quota is None:
            return
        usage = self.quota_usage(tenant_id)
        if (
            slices
            and quota.max_active_slices is not None
            and usage["active_slices"] + slices > quota.max_active_slices
        ):
            raise QuotaExceeded(
                f"tenant {tenant_id} is at its slice quota "
                f"({usage['active_slices']:.0f}/{quota.max_active_slices} active)"
            )
        if (
            quota.max_aggregate_mbps is not None
            and usage["aggregate_mbps"] + throughput_mbps
            > quota.max_aggregate_mbps + 1e-9
        ):
            raise QuotaExceeded(
                f"tenant {tenant_id} would exceed its aggregate throughput quota "
                f"({usage['aggregate_mbps']:.1f} + {throughput_mbps:.1f} > "
                f"{quota.max_aggregate_mbps:.1f} Mb/s)"
            )

    # ------------------------------------------------------------------
    # Payload → domain objects
    # ------------------------------------------------------------------
    def resolve_tenant(
        self, header_tenant: Optional[str], body_tenant: Optional[str] = None
    ) -> str:
        """Effective tenant: header wins, then body, then anonymous."""
        return header_tenant or body_tenant or DEFAULT_TENANT

    def _slice_request(
        self, payload: Dict[str, Any], tenant_id: str, request_id: str = ""
    ) -> SliceRequest:
        """The one validated-payload → :class:`SliceRequest` mapping
        (``request_id`` left empty mints the next ordinal id)."""
        try:
            return SliceRequest(
                tenant_id=tenant_id,
                service_type=payload["service_type"],
                sla=SLA(
                    throughput_mbps=payload["throughput_mbps"],
                    max_latency_ms=payload["max_latency_ms"],
                    duration_s=payload["duration_s"],
                    availability=payload["availability"],
                ),
                price=payload["price"],
                penalty_rate=payload["penalty_rate"],
                arrival_time=self.orchestrator.sim.now,
                n_users=payload["n_users"],
                request_id=request_id,
            )
        except SliceError as exc:
            raise ValidationError("invalid_value", str(exc)) from None

    def build_request(
        self, payload: Dict[str, Any], tenant_id: str
    ) -> Tuple[SliceRequest, TrafficProfile]:
        """Build the (request, traffic profile) pair from a validated
        ``SLICE_CREATE`` payload."""
        request = self._slice_request(payload, tenant_id)
        return request, self.orchestrator.fleet.default_profile(request)

    # ------------------------------------------------------------------
    # Slice collection
    # ------------------------------------------------------------------
    def create_slice(
        self, payload: Optional[dict], header_tenant: Optional[str] = None
    ) -> Tuple[AdmissionDecision, SliceRequest]:
        """Synchronous (online) admission; returns the final decision."""
        parsed = SLICE_CREATE.parse(payload)
        tenant = self.resolve_tenant(header_tenant, parsed.get("tenant_id"))
        self._enforce_quota(tenant, parsed["throughput_mbps"])
        request, profile = self.build_request(parsed, tenant)
        decision = self.orchestrator.submit(request, profile)
        return decision, request

    def create_slice_batch(
        self, payload: Optional[dict], header_tenant: Optional[str] = None
    ) -> Operation:
        """Asynchronous (batch-window) admission through the broker.

        The request queues until the broker's decision window flushes;
        the window's winners are then installed as one *concurrent*
        batch through the orchestrator's
        :class:`~repro.drivers.planner.BatchInstallPlanner` (deployment
        latency of N slices ≈ the slowest single install, not the sum).
        The returned :class:`Operation` resolves with the admit/reject
        decision then (poll ``GET /v1/operations/{op_id}``).
        """
        parsed = SLICE_CREATE.parse(payload)
        tenant = self.resolve_tenant(header_tenant, parsed.get("tenant_id"))
        self._enforce_quota(tenant, parsed["throughput_mbps"])
        request, profile = self.build_request(parsed, tenant)
        now = self.orchestrator.sim.now
        op = self.operations.create(
            kind="slice.create.batch",
            request_id=request.request_id,
            tenant_id=tenant,
            now=now,
            throughput_mbps=request.sla.throughput_mbps,
        )
        self.broker.submit(
            request,
            profile,
            on_decision=lambda decision, op_id=op.op_id: self.operations.resolve(
                op_id, decision, self.orchestrator.sim.now
            ),
        )
        return op

    def create_booking(
        self, payload: Optional[dict], header_tenant: Optional[str] = None
    ) -> Tuple[AdmissionDecision, SliceRequest, float]:
        """Advance reservation: admit against the resource calendar.

        The request is checked over its *whole future window* (ongoing
        slices + already-promised bookings); an accepted booking is
        committed to the calendar immediately and installed when
        ``start_time`` arrives.  Returns (decision, request, start_time).

        Raises:
            ValidationError: Malformed payload, or ``start_time`` in
                the past.
            QuotaExceeded: Tenant at quota (checked at booking time).
        """
        parsed = BOOKING_CREATE.parse(payload)
        tenant = self.resolve_tenant(header_tenant, parsed.get("tenant_id"))
        self._enforce_quota(tenant, parsed["throughput_mbps"])
        start_time = parsed["start_time"]
        if start_time < self.orchestrator.sim.now:
            raise ValidationError(
                "invalid_value",
                f"start_time must be in the future "
                f"(start={start_time}, now={self.orchestrator.sim.now})",
                field="start_time",
            )
        request, profile = self.build_request(parsed, tenant)
        decision = self.orchestrator.submit_advance(request, profile, start_time)
        return decision, request, start_time

    def cancel_booking(
        self, booking_id: str, tenant_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Withdraw a pending advance booking, freeing its calendar
        window and quota slot immediately.

        Raises:
            NotFound: Unknown booking, or owned by a different tenant.
            Conflict: The booking's install already fired — manage the
                resulting slice via ``DELETE /v1/slices/{id}`` instead.
        """
        pending = self.orchestrator.pending_bookings().get(booking_id)
        slice_id = slice_id_for(booking_id)
        if pending is not None:
            owner: Optional[str] = pending[0].tenant_id
        else:  # installed already, if it is a live slice now
            runtime = self.orchestrator.runtime(slice_id)
            owner = runtime.network_slice.request.tenant_id if runtime else None
        if owner is None or tenant_id not in (None, owner):
            raise NotFound(f"unknown booking {booking_id}")
        if pending is None:
            raise Conflict(
                f"booking {booking_id} already installed; manage the slice "
                f"({slice_id}) instead"
            )
        self.orchestrator.cancel_advance(booking_id)
        return {"booking_id": booking_id, "state": "cancelled"}

    def list_bookings(self, tenant_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """The shard's *pending* advance bookings, start-ordered
        (tenant-scoped when a tenant is given): the orchestrator's own
        table, so bookings recovery re-promised are listed too.

        A booking whose install already fired is a slice (manage it via
        ``/v1/slices/{id}``) and is not listed.  Window details
        (``end``, ``demand``) are joined from the calendar when it holds
        the booking (always, unless the orchestrator runs with
        ``respect_calendar=False``).
        """
        calendar = self.orchestrator.calendar
        out: List[Dict[str, Any]] = []
        for booking_id, (request, start) in self.orchestrator.pending_bookings().items():
            if tenant_id is not None and request.tenant_id != tenant_id:
                continue
            window = calendar.get(booking_id)
            out.append(
                {
                    "booking_id": booking_id,
                    "tenant_id": request.tenant_id,
                    "start": start,
                    "end": window.end if window is not None else None,
                    "demand": {
                        "prbs": float(window.demand.prbs),
                        "mbps": float(window.demand.mbps),
                        "vcpus": float(window.demand.vcpus),
                    }
                    if window is not None
                    else None,
                }
            )
        out.sort(key=lambda e: (e["start"], e["booking_id"]))
        return out

    def list_slices(
        self,
        tenant_id: Optional[str] = None,
        state: Optional[str] = None,
        offset: int = 0,
        limit: Optional[int] = None,
    ) -> Tuple[List[NetworkSlice], int]:
        """Filtered, paginated inventory in ``slice_id`` order, cut from the
        slice index; returns (page, total_matched).

        ``limit=None`` returns everything past ``offset``."""
        if state is not None and state not in SLICE_STATES:
            raise ValidationError(
                "invalid_parameter",
                f"unknown state {state!r}; valid: {SLICE_STATES}",
                field="state",
            )
        ids = self.orchestrator.slice_index.view(tenant_id, state)
        end = None if limit is None else offset + limit
        return [self.orchestrator.slice(slice_id) for slice_id in ids[offset:end]], len(ids)

    def get_slice(
        self, slice_id: str, tenant_id: Optional[str] = None
    ) -> NetworkSlice:
        """Slice detail; tenant mismatch reads as 404 (no existence leak).

        Raises:
            NotFound: Unknown slice, or owned by a different tenant.
        """
        try:
            network_slice = self.orchestrator.slice(slice_id)
        except OrchestratorError as exc:
            raise NotFound(str(exc)) from None
        if tenant_id is not None and network_slice.request.tenant_id != tenant_id:
            raise NotFound(f"unknown slice {slice_id}")
        return network_slice

    def delete_slice(
        self, slice_id: str, tenant_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Tear down an ACTIVE slice or cancel one pending activation.

        Raises:
            NotFound: Unknown/foreign slice.
            Conflict: Slice already terminal (expired/rejected/...).
        """
        network_slice = self.get_slice(slice_id, tenant_id)
        state = network_slice.state
        if state is SliceState.ACTIVE:
            refund = self.orchestrator.terminate_early(slice_id, refund=True)
            return {"slice_id": slice_id, "state": "expired", "refund": refund}
        if state in (SliceState.ADMITTED, SliceState.DEPLOYING):
            refund = self.orchestrator.cancel(slice_id, refund=True)
            return {"slice_id": slice_id, "state": "cancelled", "refund": refund}
        raise Conflict(f"slice is {state.value}, not active")

    def modify_slice(
        self,
        slice_id: str,
        payload: Optional[dict],
        tenant_id: Optional[str] = None,
    ) -> AdmissionDecision:
        """Rescale an ACTIVE slice's throughput SLA.

        The grow is checked against the owner's aggregate-throughput
        quota (otherwise create-small-then-PATCH-big would void it).

        Raises:
            QuotaExceeded: The rescale would exceed ``max_aggregate_mbps``.
        """
        parsed = SLICE_MODIFY.parse(payload)
        network_slice = self.get_slice(slice_id, tenant_id)  # existence + tenancy
        wanted = parsed["throughput_mbps"]
        # A live slice already counts its current share.
        current = (
            network_slice.request.sla.throughput_mbps
            if self.orchestrator.runtime(slice_id) is not None
            else 0.0
        )
        self._enforce_quota(
            network_slice.request.tenant_id, wanted - current, slices=0
        )
        return self.orchestrator.modify_slice(slice_id, wanted)

    def what_if(
        self, payload: Optional[dict], header_tenant: Optional[str] = None
    ) -> dict:
        """Non-committal feasibility probe — it mints no request id
        either: every probe answers as ``WHAT_IF_REQUEST_ID``."""
        parsed = WHAT_IF.parse(payload)
        tenant = self.resolve_tenant(header_tenant, parsed.get("tenant_id"))
        probe = self._slice_request(parsed, tenant, request_id=WHAT_IF_REQUEST_ID)
        return self.orchestrator.what_if(probe)

    # ------------------------------------------------------------------
    # Operations + events
    # ------------------------------------------------------------------
    def get_operation(
        self, op_id: str, tenant_id: Optional[str] = None
    ) -> Operation:
        """Async-operation detail (tenant-scoped like slices).

        Raises:
            NotFound: Unknown op, or owned by a different tenant.
        """
        op = self.operations.get(op_id)
        if op is None:
            raise NotFound(f"unknown operation {op_id}")
        if tenant_id is not None and op.tenant_id != tenant_id:
            raise NotFound(f"unknown operation {op_id}")
        return op

    def list_operations(self, tenant_id: Optional[str] = None) -> List[Operation]:
        """All retained operations, oldest first (tenant-scoped)."""
        return self.operations.list(tenant_id)

    def events_since(
        self,
        query: Dict[str, str],
        tenant_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The event feed page for ``GET /v1/events``.

        Two cursors:

        - ``since=<seq>`` — the in-memory feed (bounded buffer; fast,
          but a consumer that falls behind sees a gap);
        - ``after_lsn=<lsn>`` — the **durable** cursor: events are
          replayed from the write-ahead journal, so a consumer can
          resume across orchestrator restarts and beyond the in-memory
          buffer.  Replay reaches back to the latest checkpoint
          (``replay_floor_lsn``); requires durability to be enabled.
        """
        log = self.orchestrator.events
        limit = parse_int_param(query, "limit", default=100, minimum=1, maximum=1000)
        if "after_lsn" in query:
            return self._events_after_lsn(query, tenant_id, limit)
        cursor = parse_int_param(query, "since", default=0, minimum=0)
        # Tenant-filter BEFORE limiting: a short page then means "scanned
        # to the end", so advancing the cursor to the last returned seq
        # (or last_seq on an empty page) never skips the tenant's events.
        events: List[OrchestrationEvent] = log.since(cursor)
        if tenant_id is not None:
            events = [
                e for e in events if e.tenant_id is None or e.tenant_id == tenant_id
            ]
        events = events[:limit]
        return {
            "events": [e.to_dict() for e in events],
            "last_seq": log.last_seq,
            "first_retained_seq": log.first_seq,
        }

    def _events_after_lsn(
        self, query: Dict[str, str], tenant_id: Optional[str], limit: int
    ) -> Dict[str, Any]:
        """Durable event replay from the journal (see
        :meth:`events_since`)."""
        store = self.orchestrator.store
        if not store.enabled:
            raise ValidationError(
                "invalid_parameter",
                "after_lsn requires durability (no durability_dir configured)",
                field="after_lsn",
            )
        after_lsn = parse_int_param(query, "after_lsn", default=0, minimum=0)
        # Tenant-filter BEFORE limiting, same contract as the in-memory
        # path: a short page means "scanned to the end of the journal",
        # and only then is last_lsn a safe cursor to jump to — otherwise
        # consumers advance to the last *returned* event's lsn.  Without
        # a tenant filter the limit pushes down into the journal scan.
        if tenant_id is None:
            pairs = store.events_after(after_lsn, limit=limit)
        else:
            pairs = [
                (lsn, e)
                for lsn, e in store.events_after(after_lsn)
                if e.get("tenant_id") is None or e.get("tenant_id") == tenant_id
            ][:limit]
        return {
            "events": [dict(event, lsn=lsn) for lsn, event in pairs],
            "last_lsn": store.last_lsn,
            "replay_floor_lsn": store.snapshot_lsn,
            "last_seq": self.orchestrator.events.last_seq,
        }

    # ------------------------------------------------------------------
    # Observability passthrough
    # ------------------------------------------------------------------
    def dashboard(self) -> dict:
        """The full orchestrator snapshot."""
        return self.orchestrator.snapshot()

    def domain(self, name: str) -> dict:
        """Per-domain utilization, served by the southbound driver
        registry — any registered backend (incl. ``epc`` or injected
        mocks) is addressable here.

        Raises:
            NotFound: Unknown domain name.
        """
        registry = self.orchestrator.registry
        if name not in registry:
            raise NotFound(
                f"unknown domain {name!r}; valid: {sorted(registry.domains())}"
            )
        return registry.get(name).utilization()

    # ------------------------------------------------------------------
    # Admin surface (operator-scoped; see docs/API.md)
    # ------------------------------------------------------------------
    def admin_state(self) -> dict:
        """Durability + control-plane health for ``GET /v1/admin/state``."""
        orchestrator = self.orchestrator
        live = orchestrator.live_slices()
        return {
            "durability": orchestrator.store.status(),
            "control_plane": {
                "time": orchestrator.sim.now,
                "live_slices": len(live),
                "active_slices": len(orchestrator.active_slices()),
                "pending_installs": orchestrator.pending_installs,
                "pending_bookings": len(orchestrator.pending_bookings()),
                "plmn_available": orchestrator.plmn_pool.available,
                "quota_tenants": sorted(orchestrator.quotas),
            },
            "planner": orchestrator.planner.status(),
        }

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition for ``GET /v1/admin/metrics``.

        Control-plane histograms/counters/gauges under the ``cp_``
        namespace, sim telemetry read off live state
        (:func:`~repro.core.epoch.sim_gauges`) under ``sim_``.  With
        observability disabled only the sim namespace is rendered.
        """
        from repro.obs.export import render_prometheus

        return render_prometheus(
            self.orchestrator.obs, sim_gauges(self.orchestrator)
        )

    def traces(self, query: Dict[str, str]) -> dict:
        """Finished traces (or slow spans) for ``GET /v1/admin/traces``.

        Query: ``limit`` (default 50, max 1000) and ``slow`` — when
        true, returns the slow-span audit log (spans that exceeded the
        tracer's threshold, each with its ancestry chain) instead of
        assembled traces.

        Raises:
            ValidationError: On malformed ``limit``/``slow`` values.
        """
        limit = parse_int_param(query, "limit", default=50, minimum=1, maximum=1000)
        slow = parse_bool_param(query, "slow", default=False)
        obs = self.orchestrator.obs
        if not obs.enabled:
            return {
                "enabled": False,
                "slow": slow,
                "count": 0,
                "traces": [],
                "slow_spans": [],
            }
        body: Dict[str, Any] = {
            "enabled": True,
            "slow": slow,
            "tracer": obs.tracer.status(),
        }
        if slow:
            spans = obs.tracer.slow_spans(limit)
            body.update(
                {
                    "count": len(spans),
                    "slow_threshold_ms": obs.tracer.slow_threshold_ms,
                    "slow_spans": spans,
                    "traces": [],
                }
            )
        else:
            traces = obs.tracer.traces(limit)
            body.update({"count": len(traces), "traces": traces, "slow_spans": []})
        return body

    def checkpoint(self) -> dict:
        """Force a snapshot + journal compaction
        (``POST /v1/admin/checkpoint``).

        Raises:
            Conflict: When durability is disabled — there is nothing
                to checkpoint a memory-only control plane into.
        """
        if not self.orchestrator.store.enabled:
            raise Conflict(
                "durability is disabled (no durability_dir configured)"
            )
        return self.orchestrator.durable.checkpoint()


__all__ = [
    "Conflict",
    "DEFAULT_TENANT",
    "NotFound",
    "Operation",
    "OperationStore",
    "QuotaExceeded",
    "ServiceError",
    "SliceService",
    "TenantQuota",
]
