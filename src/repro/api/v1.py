"""Versioned northbound REST surface (``/v1``).

Every handler here is a thin adapter: parse query/header context, call
:class:`~repro.api.service.SliceService`, render the result.  Validation
and service failures surface as the structured error envelope::

    {"error": {"code": ..., "message": ..., "field": ...}}

Endpoints (full reference in ``docs/API.md``):

- ``POST /v1/slices`` — create a slice.  ``?mode=sync`` (default)
  decides online and returns 201/409; ``?mode=batch`` enqueues into the
  batch-window broker and returns **202** with an operation id.
- ``GET /v1/slices`` — tenant-scoped inventory with ``state`` filtering
  and ``offset``/``limit`` pagination.
- ``GET|PATCH|DELETE /v1/slices/{slice_id}`` — detail / rescale /
  teardown (DELETE also cancels slices still pending activation).
- ``POST /v1/bookings`` — advance reservation against the resource
  calendar (**201** booked / **409** ``calendar_conflict``); ``GET
  /v1/bookings`` lists the shard's pending bookings; ``DELETE
  /v1/bookings/{booking_id}`` withdraws one.
- ``GET /v1/operations[/{op_id}]`` — poll async operations.
- ``GET /v1/events?since=N`` — the bounded orchestration event feed;
  ``?after_lsn=N`` replays from the durable journal instead, so
  consumers can resume across orchestrator restarts.
- ``GET /v1/admin/state`` / ``POST /v1/admin/checkpoint`` — operator
  surface over the durable control-plane store.
- ``GET /v1/admin/metrics`` — Prometheus text exposition (control-plane
  ``cp_`` + sim ``sim_`` namespaces); ``GET /v1/admin/traces?slow=&limit=``
  — finished pipeline traces / the slow-span audit log.
- ``POST /v1/whatif`` — feasibility probe.
- ``GET /v1/dashboard`` / ``GET /v1/domains/{domain}`` — observability.

Tenancy: requests carrying ``X-Tenant-Id`` see only their own slices and
operations; collection endpoints filter, detail endpoints 404 on foreign
resources (no existence leak).
"""

from __future__ import annotations

from typing import Optional

from repro.api.rest import Handler, Request, Response, RestApi
from repro.api.schemas import (
    ValidationError,
    error_body,
    error_response,
    parse_pagination,
)
from repro.api.service import ServiceError, SliceService
from repro.core.broker import SliceBroker
from repro.core.orchestrator import Orchestrator
from repro.obs.export import PROMETHEUS_CONTENT_TYPE

TENANT_HEADER = "x-tenant-id"

#: Query modes accepted by ``POST /v1/slices``.
CREATE_MODES = ("sync", "batch")


def _tenant_of(request: Request) -> Optional[str]:
    """The scoping tenant: the X-Tenant-Id header, else a ``tenant``
    query parameter (convenience for GET collections), else None."""
    return request.header(TENANT_HEADER) or request.query.get("tenant") or None


def _rejection_response(code: str, decision) -> Response:
    """The 409 envelope for a rejected admission-style decision."""
    body = error_body(code, decision.reason)
    body.update(
        {
            "request_id": decision.request_id,
            "slice_id": decision.slice_id,
            "admitted": False,
        }
    )
    return Response(status=409, body=body)


def guarded(handler: Handler) -> Handler:
    """Translate schema/service exceptions into enveloped responses."""

    def wrapped(request: Request):
        try:
            return handler(request)
        except ValidationError as exc:
            return exc.to_response(400)
        except ServiceError as exc:
            return error_response(exc.status, exc.code, exc.message)

    return wrapped


def build_v1_api(service: SliceService) -> RestApi:
    """A router serving the ``/v1`` routes for ``service``; no handler
    points back at it, so it dies with its control plane."""
    api = RestApi()

    def post_slice(request: Request) -> Response:
        mode = request.query.get("mode", "sync")
        if mode not in CREATE_MODES:
            return error_response(
                400,
                "invalid_parameter",
                f"unknown mode {mode!r}; valid: {list(CREATE_MODES)}",
                field="mode",
            )
        header_tenant = request.header(TENANT_HEADER)
        if mode == "batch":
            op = service.create_slice_batch(request.body, header_tenant)
            return Response(
                status=202,
                body={
                    "operation_id": op.op_id,
                    "status": op.status,
                    "request_id": op.request_id,
                    "mode": "batch",
                    "location": f"/v1/operations/{op.op_id}",
                },
            )
        decision, slice_request = service.create_slice(request.body, header_tenant)
        if not decision.admitted:
            return _rejection_response("admission_rejected", decision)
        return Response(
            status=201,
            body={
                "slice_id": decision.slice_id,
                "request_id": decision.request_id,
                "tenant_id": slice_request.tenant_id,
                "admitted": True,
                "reason": decision.reason,
                "location": f"/v1/slices/{decision.slice_id}",
            },
        )

    def get_slices(request: Request) -> Response:
        offset, limit = parse_pagination(request.query)
        page, total = service.list_slices(
            tenant_id=_tenant_of(request),
            state=request.query.get("state"),
            offset=offset,
            limit=limit,
        )
        return Response(
            status=200,
            body={
                "slices": [s.to_dict() for s in page],
                "count": len(page),
                "total": total,
                "offset": offset,
                "limit": limit,
            },
        )

    def get_slice(request: Request) -> Response:
        network_slice = service.get_slice(
            request.params["slice_id"], _tenant_of(request)
        )
        return Response(status=200, body=network_slice.to_dict())

    def patch_slice(request: Request) -> Response:
        decision = service.modify_slice(
            request.params["slice_id"], request.body, _tenant_of(request)
        )
        if not decision.admitted:
            body = error_body("modification_rejected", decision.reason)
            body.update({"slice_id": request.params["slice_id"], "admitted": False})
            return Response(status=409, body=body)
        return Response(
            status=200,
            body={
                "slice_id": request.params["slice_id"],
                "admitted": True,
                "reason": decision.reason,
            },
        )

    def delete_slice(request: Request) -> Response:
        result = service.delete_slice(request.params["slice_id"], _tenant_of(request))
        return Response(status=200, body=result)

    def post_booking(request: Request) -> Response:
        decision, slice_request, start_time = service.create_booking(
            request.body, request.header(TENANT_HEADER)
        )
        if not decision.admitted:
            return _rejection_response("calendar_conflict", decision)
        return Response(
            status=201,
            body={
                "booking_id": slice_request.request_id,
                "request_id": slice_request.request_id,
                "tenant_id": slice_request.tenant_id,
                "start_time": start_time,
                "admitted": True,
                "reason": decision.reason,
            },
        )

    def get_bookings(request: Request) -> Response:
        bookings = service.list_bookings(_tenant_of(request))
        return Response(
            status=200, body={"bookings": bookings, "count": len(bookings)}
        )

    def delete_booking(request: Request) -> Response:
        result = service.cancel_booking(
            request.params["booking_id"], _tenant_of(request)
        )
        return Response(status=200, body=result)

    def post_whatif(request: Request) -> Response:
        report = service.what_if(request.body, request.header(TENANT_HEADER))
        return Response(status=200, body=report)

    def get_operations(request: Request) -> Response:
        ops = service.list_operations(_tenant_of(request))
        return Response(
            status=200,
            body={"operations": [op.to_dict() for op in ops], "count": len(ops)},
        )

    def get_operation(request: Request) -> Response:
        op = service.get_operation(request.params["op_id"], _tenant_of(request))
        return Response(status=200, body=op.to_dict())

    def get_events(request: Request) -> Response:
        feed = service.events_since(request.query, _tenant_of(request))
        return Response(status=200, body=feed)

    def get_dashboard(request: Request) -> Response:
        return Response(status=200, body=service.dashboard())

    def get_admin_state(request: Request) -> Response:
        return Response(status=200, body=service.admin_state())

    def get_admin_metrics(request: Request) -> Response:
        return Response(
            status=200,
            text=service.metrics_prometheus(),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    def get_admin_traces(request: Request) -> Response:
        return Response(status=200, body=service.traces(request.query))

    def post_admin_checkpoint(request: Request) -> Response:
        return Response(status=200, body=service.checkpoint())

    def get_domain(request: Request) -> Response:
        return Response(status=200, body=service.domain(request.params["domain"]))

    def get_index(request: Request) -> Response:
        return Response(status=200, body={"version": "v1", "routes": list(routes)})

    api.route("GET", "/v1", guarded(get_index))
    api.route("POST", "/v1/slices", guarded(post_slice))
    api.route("GET", "/v1/slices", guarded(get_slices))
    api.route("GET", "/v1/slices/{slice_id}", guarded(get_slice))
    api.route("PATCH", "/v1/slices/{slice_id}", guarded(patch_slice))
    api.route("DELETE", "/v1/slices/{slice_id}", guarded(delete_slice))
    api.route("POST", "/v1/bookings", guarded(post_booking))
    api.route("GET", "/v1/bookings", guarded(get_bookings))
    api.route("DELETE", "/v1/bookings/{booking_id}", guarded(delete_booking))
    api.route("POST", "/v1/whatif", guarded(post_whatif))
    api.route("GET", "/v1/operations", guarded(get_operations))
    api.route("GET", "/v1/operations/{op_id}", guarded(get_operation))
    api.route("GET", "/v1/events", guarded(get_events))
    api.route("GET", "/v1/dashboard", guarded(get_dashboard))
    api.route("GET", "/v1/domains/{domain}", guarded(get_domain))
    api.route("GET", "/v1/admin/state", guarded(get_admin_state))
    api.route("POST", "/v1/admin/checkpoint", guarded(post_admin_checkpoint))
    api.route("GET", "/v1/admin/metrics", guarded(get_admin_metrics))
    api.route("GET", "/v1/admin/traces", guarded(get_admin_traces))
    routes = api.routes()
    return api


def build_orchestrator_api(
    orchestrator: Orchestrator,
    broker: Optional[SliceBroker] = None,
    service: Optional[SliceService] = None,
) -> RestApi:
    """Wire an orchestrator behind the ``/v1`` surface.  Pass ``broker``
    to reuse an existing batch-window broker for
    ``POST /v1/slices?mode=batch``."""
    return build_v1_api(service or SliceService(orchestrator, broker=broker))


__all__ = ["CREATE_MODES", "TENANT_HEADER", "build_orchestrator_api", "build_v1_api", "guarded"]
