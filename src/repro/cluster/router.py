"""The v1 API router of the sharded control plane.

:class:`ShardRouter` speaks the same in-process REST surface as a
single shard's :func:`~repro.api.v1.build_v1_api` — same verbs, same
paths, same error envelope — but in front of N shards:

- **Tenant-affine** calls (create/rescale/delete slices, bookings,
  what-if) are routed to the one shard the
  :class:`~repro.cluster.ring.HashRing` assigns the tenant, and the
  shard's own API answers verbatim.  Detail reads without a tenant
  header fall back to scatter-gather (first non-404 wins).
- **Collection** calls fan out to every shard and merge, every item
  annotated with its ``shard``.  A slice page is cut in the global
  ``(slice_id, shard)`` order from the shards' sorted slice-index views
  (duplicate-free and ordered — the cross-shard semantics suite pins
  this), without building the union.
- **The durable event feed** merges per-shard WAL cursors as a
  *vector*: LSNs are per-shard sequences, so one integer cannot
  address a cluster position.  ``GET /v1/events?after_lsn=`` accepts
  a plain integer (broadcast to every shard — ``0`` starts from the
  floor) or the vector form ``0:15,1:7``; the response's
  ``next_after_lsn`` advances each component only past the events the
  merged page actually included, so a consumer resuming from it never
  replays and never skips.
- **Admin/metrics** fan out: one Prometheus scrape with a ``shard``
  label injected per series, per-shard state/traces keyed by shard id.

The router holds :class:`~repro.cluster.shard.ShardWorker` objects and
reads their ``api``/``service`` attributes per call — a failover that
swaps a shard's control plane (promotion) redirects traffic with no
router surgery.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

from repro.api.rest import Request, Response, RestApi
from repro.api.schemas import (
    ValidationError,
    error_response,
    parse_int_param,
    parse_pagination,
)
from repro.api.v1 import TENANT_HEADER, guarded
from repro.cluster.ring import HashRing
from repro.obs.registry import NOOP_OBS


class VectorCursor:
    """A per-shard LSN position in the merged durable event feed.

    Encoded ``"<shard>:<lsn>,<shard>:<lsn>,..."`` (e.g. ``0:15,1:7``);
    a bare integer broadcasts one LSN to every shard (``0`` = from the
    replay floor everywhere).
    """

    def __init__(self, positions: Dict[int, int]) -> None:
        self.positions = {int(k): int(v) for k, v in positions.items()}

    @classmethod
    def parse(cls, raw: str, shard_count: int) -> "VectorCursor":
        """Parse a cursor string; raises ``ValidationError`` (the 400
        envelope) on malformed input or unknown shard components."""
        raw = (raw or "0").strip()
        try:
            if ":" not in raw:
                scalar = int(raw)
                if scalar < 0:
                    raise ValueError("negative")
                return cls({k: scalar for k in range(shard_count)})
            positions = {k: 0 for k in range(shard_count)}
            for part in raw.split(","):
                shard_text, _, lsn_text = part.partition(":")
                shard, lsn = int(shard_text), int(lsn_text)
                if shard not in positions or lsn < 0:
                    raise ValueError(part)
                positions[shard] = lsn
            return cls(positions)
        except ValueError:
            raise ValidationError(
                "invalid_parameter",
                f"malformed event cursor {raw!r}; expected an integer or "
                f'"<shard>:<lsn>,..." with shards in [0, {shard_count})',
                field="after_lsn",
            ) from None

    def get(self, shard_id: int) -> int:
        return self.positions.get(shard_id, 0)

    def advanced(self, seen: Dict[int, int]) -> "VectorCursor":
        """A copy moved past the per-shard LSNs actually delivered."""
        merged = dict(self.positions)
        for shard_id, lsn in seen.items():
            merged[shard_id] = max(merged.get(shard_id, 0), lsn)
        return VectorCursor(merged)

    def encode(self) -> str:
        return ",".join(
            f"{shard}:{lsn}" for shard, lsn in sorted(self.positions.items())
        )


def _merge_starts(views: Sequence[Sequence[str]], offset: int) -> List[int]:
    """How many ids of each shard's sorted view rank below ``offset`` in the merged
    ``(slice_id, shard)`` order: a bisection over ranks, each one bisect per view."""

    def rank(k: int, slice_id: str) -> int:
        return sum((bisect_right if i < k else bisect_left)(v, slice_id) for i, v in enumerate(views))

    return [bisect_left(range(len(v)), offset, key=lambda p: rank(k, v[p])) for k, v in enumerate(views)]


class ShardRouter(RestApi):
    """Routes, fans out, and merges the v1 surface over N shards: a
    :class:`RestApi` whose routes are the v1 surface's and whose
    :meth:`dispatch` is timed.

    Args:
        ring: The tenant → shard map (shared with the cluster builder).
        shards: Shard workers, indexed by ``shard_id``; each exposes
            ``.api`` (a v1 :class:`RestApi`) and ``.service``.
        obs: Optional control-plane observability sink; when enabled
            the router times its dispatches (``router.dispatch``
            histogram, labelled by route kind).
    """

    def __init__(
        self, ring: HashRing, shards: Sequence[Any], obs: Any = None
    ) -> None:
        if ring.shard_count != len(shards):
            raise ValueError(
                f"ring covers {ring.shard_count} shards, got {len(shards)}"
            )
        super().__init__()
        self.ring = ring
        self.shards = list(shards)
        self.obs = obs if obs is not None else NOOP_OBS
        self._register()

    def dispatch(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        with self.obs.timed("router.dispatch", label=method.upper()):
            return super().dispatch(method, path, body, headers)

    # ------------------------------------------------------------------
    # Routing primitives
    # ------------------------------------------------------------------
    def _tenant_of(self, request: Request) -> Optional[str]:
        """The routing tenant: header, query param, or request body."""
        tenant = request.header(TENANT_HEADER) or request.query.get("tenant")
        if tenant:
            return tenant
        if isinstance(request.body, dict):
            body_tenant = request.body.get("tenant_id")
            if body_tenant:
                return str(body_tenant)
        return None

    def _owner(self, tenant_id: str) -> Any:
        return self.shards[self.ring.shard_for(tenant_id)]

    def _forward(self, shard: Any, request: Request) -> Response:
        """Replay ``request`` verbatim against one shard's API."""
        path = request.path
        if request.query:
            path = f"{path}?{urlencode(request.query)}"
        return shard.api.dispatch(
            request.method, path, request.body, request.headers
        )

    def _route_by_tenant(self, request: Request) -> Response:
        """Tenant-affine: one shard owns the call.  Without any tenant
        context the request cannot be partitioned — reject loudly
        rather than guess a shard (create paths default the tenant at
        the *service* layer, so the router defaults it identically)."""
        from repro.api.service import DEFAULT_TENANT

        tenant = self._tenant_of(request) or DEFAULT_TENANT
        return self._forward(self._owner(tenant), request)

    def _route_detail(self, request: Request) -> Response:
        """Detail endpoints (``/v1/slices/{id}`` etc.): route by tenant
        when the caller is scoped, else scatter-gather — ids are unique
        cluster-wide (shards share one request-ordinal space per
        process, and recovery pins the counter past every journaled
        id), so at most one shard answers non-404."""
        tenant = self._tenant_of(request)
        if tenant:
            return self._forward(self._owner(tenant), request)
        for shard in self.shards:  # the ring has at least one
            response = self._forward(shard, request)
            if response.status != 404:
                return response
        return response

    # ------------------------------------------------------------------
    # Fan-out + merge handlers
    # ------------------------------------------------------------------
    def _get_slices(self, request: Request) -> Response:
        offset, limit = parse_pagination(request.query)
        tenant = request.header(TENANT_HEADER) or request.query.get("tenant") or None
        state = request.query.get("state")
        # Global order: (slice_id, shard), so re-cut pages are duplicate-free and
        # seam-consistent.  Only ``limit`` ids are merged, from each shard's share
        # of ``offset`` on; only the slices they name are fetched and serialised.
        views = [s.service.orchestrator.slice_index.view(tenant, state) for s in self.shards]
        starts = _merge_starts(views, offset)
        heads = [
            [(slice_id, k) for slice_id in view[start : start + limit]]
            for k, (view, start) in enumerate(zip(views, starts))
        ]
        order = [k for _, k in islice(heapq.merge(*heads), limit)]
        pages, total = [], 0
        for k, shard in enumerate(self.shards):
            page, shard_total = shard.service.list_slices(tenant, state, starts[k], order.count(k))
            pages.append(iter(page))
            total += shard_total
        window = [dict(next(pages[k]).to_dict(), shard=self.shards[k].shard_id) for k in order]
        return Response(status=200, body={
            "slices": window, "count": len(window), "total": total, "offset": offset, "limit": limit,
        })

    def _get_bookings(self, request: Request) -> Response:
        tenant = request.header(TENANT_HEADER) or request.query.get("tenant") or None
        merged: List[dict] = []
        for shard in self.shards:
            for booking in shard.service.list_bookings(tenant):
                booking["shard"] = shard.shard_id
                merged.append(booking)
        merged.sort(
            key=lambda b: (
                b["start"] if b.get("start") is not None else float("inf"),
                b["booking_id"],
            )
        )
        return Response(status=200, body={"bookings": merged, "count": len(merged)})

    def _get_operations(self, request: Request) -> Response:
        tenant = request.header(TENANT_HEADER) or request.query.get("tenant") or None
        merged: List[dict] = []
        for shard in self.shards:
            for op in shard.service.list_operations(tenant):
                item = op.to_dict()
                item["shard"] = shard.shard_id
                merged.append(item)
        merged.sort(key=lambda item: (item["operation_id"], item["shard"]))
        return Response(
            status=200, body={"operations": merged, "count": len(merged)}
        )

    def _get_events(self, request: Request) -> Response:
        """The merged durable feed (see the module docstring).  The
        in-memory ``since=`` cursor is per-process and meaningless
        across shards, so the router serves only the durable cursor."""
        if "since" in request.query:
            return error_response(
                400,
                "invalid_parameter",
                "the sharded feed has no cluster-wide 'since' sequence; "
                "use the durable vector cursor (after_lsn=)",
                field="since",
            )
        limit = parse_int_param(
            request.query, "limit", default=100, minimum=1, maximum=1000
        )
        tenant = request.header(TENANT_HEADER) or request.query.get("tenant") or None
        cursor = VectorCursor.parse(
            request.query.get("after_lsn", "0"), len(self.shards)
        )
        candidates: List[Tuple[float, int, int, dict]] = []
        floors: Dict[int, int] = {}
        heads: Dict[int, int] = {}
        for shard in self.shards:
            feed = shard.service.events_since(
                {"after_lsn": str(cursor.get(shard.shard_id)), "limit": str(limit)},
                tenant,
            )
            floors[shard.shard_id] = feed.get("replay_floor_lsn", 0)
            heads[shard.shard_id] = feed.get("last_lsn", 0)
            for event in feed["events"]:
                event["shard"] = shard.shard_id
                candidates.append(
                    (float(event.get("time", 0.0)), shard.shard_id, event["lsn"], event)
                )
        # Deterministic merge order; the page cut below keeps the
        # cursor honest — components advance only past *included*
        # events, so the tail a short page dropped is re-fetched next
        # call (no skips), and re-fetching an included lsn is
        # impossible (no replays).
        candidates.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        page = candidates[:limit]
        seen: Dict[int, int] = {}
        for _, shard_id, lsn, _event in page:
            seen[shard_id] = max(seen.get(shard_id, 0), lsn)
        next_cursor = cursor.advanced(seen)
        return Response(
            status=200,
            body={
                "events": [event for _, _, _, event in page],
                "count": len(page),
                "next_after_lsn": next_cursor.encode(),
                "last_lsn": {str(k): v for k, v in heads.items()},
                "replay_floor_lsn": {str(k): v for k, v in floors.items()},
            },
        )

    # ------------------------------------------------------------------
    # Admin fan-out
    # ------------------------------------------------------------------
    def _get_admin_state(self, request: Request) -> Response:
        shards: Dict[str, dict] = {}
        totals = {"live_slices": 0, "active_slices": 0, "pending_installs": 0}
        for shard in self.shards:
            state = shard.service.admin_state()
            shards[str(shard.shard_id)] = state
            control = state.get("control_plane", {})
            for key in totals:
                totals[key] += int(control.get(key, 0))
        return Response(
            status=200,
            body={
                "cluster": {"shard_count": len(self.shards), **totals},
                "shards": shards,
            },
        )

    def _post_admin_checkpoint(self, request: Request) -> Response:
        results: Dict[str, dict] = {}
        worst = 200
        for shard in self.shards:
            response = self._forward(shard, request)
            results[str(shard.shard_id)] = response.body
            worst = max(worst, response.status)
        return Response(status=worst, body={"shards": results})

    def _get_admin_metrics(self, request: Request) -> Response:
        from repro.obs.export import PROMETHEUS_CONTENT_TYPE, merge_expositions

        texts = {
            shard.shard_id: shard.service.metrics_prometheus()
            for shard in self.shards
        }
        return Response(
            status=200,
            text=merge_expositions(texts),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    def _get_admin_traces(self, request: Request) -> Response:
        return Response(
            status=200,
            body={
                "shards": {
                    str(shard.shard_id): shard.service.traces(request.query)
                    for shard in self.shards
                }
            },
        )

    def _get_dashboard(self, request: Request) -> Response:
        return Response(
            status=200,
            body={
                "shards": {
                    str(shard.shard_id): shard.service.dashboard()
                    for shard in self.shards
                }
            },
        )

    def _get_domain(self, request: Request) -> Response:
        shards: Dict[str, dict] = {}
        last_404: Optional[Response] = None
        for shard in self.shards:
            response = self._forward(shard, request)
            if response.status == 404:
                last_404 = response
                continue
            shards[str(shard.shard_id)] = response.body
        if not shards and last_404 is not None:
            return last_404
        return Response(status=200, body={"shards": shards})

    def _get_index(self, request: Request) -> Response:
        return Response(
            status=200,
            body={
                "version": "v1",
                "sharding": {
                    "shard_count": len(self.shards),
                    "ring_vnodes": self.ring.vnodes,
                    "event_cursor": "vector (after_lsn=<shard>:<lsn>,...)",
                },
                "routes": self.routes(),
            },
        )

    # ------------------------------------------------------------------
    # Route table
    # ------------------------------------------------------------------
    def _register(self) -> None:
        self.route("GET", "/v1", guarded(self._get_index))
        # Tenant-affine writes → one shard.
        self.route("POST", "/v1/slices", guarded(self._route_by_tenant))
        self.route("POST", "/v1/bookings", guarded(self._route_by_tenant))
        self.route("POST", "/v1/whatif", guarded(self._route_by_tenant))
        # Detail endpoints → owner (or scatter-gather when unscoped).
        self.route("GET", "/v1/slices/{slice_id}", guarded(self._route_detail))
        self.route("PATCH", "/v1/slices/{slice_id}", guarded(self._route_detail))
        self.route("DELETE", "/v1/slices/{slice_id}", guarded(self._route_detail))
        self.route("DELETE", "/v1/bookings/{booking_id}", guarded(self._route_detail))
        self.route("GET", "/v1/operations/{op_id}", guarded(self._route_detail))
        # Collections → fan out + merge.
        self.route("GET", "/v1/slices", guarded(self._get_slices))
        self.route("GET", "/v1/bookings", guarded(self._get_bookings))
        self.route("GET", "/v1/operations", guarded(self._get_operations))
        self.route("GET", "/v1/events", guarded(self._get_events))
        # Observability + admin → fan out.
        self.route("GET", "/v1/dashboard", guarded(self._get_dashboard))
        self.route("GET", "/v1/domains/{domain}", guarded(self._get_domain))
        self.route("GET", "/v1/admin/state", guarded(self._get_admin_state))
        self.route("POST", "/v1/admin/checkpoint", guarded(self._post_admin_checkpoint))
        self.route("GET", "/v1/admin/metrics", guarded(self._get_admin_metrics))
        self.route("GET", "/v1/admin/traces", guarded(self._get_admin_traces))


__all__ = ["ShardRouter", "VectorCursor"]
