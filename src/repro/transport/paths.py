"""Constrained path computation.

The orchestrator's transport question is: *a path from this eNB to that
DC gateway with ≥ B Mb/s residual and total delay ≤ D ms*.  We solve it
with CSPF — prune links with insufficient residual, then run Dijkstra on
delay — and fall back to Yen's k-shortest-paths when load balancing or
alternatives are wanted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.transport.links import Link
from repro.transport.topology import Topology


class PathComputationError(RuntimeError):
    """Raised when no feasible path exists for a request."""


@dataclass
class PathRequest:
    """A constrained-path query.

    Attributes:
        src: Ingress node (eNB aggregation point).
        dst: Egress node (DC gateway).
        min_bandwidth_mbps: Residual each link on the path must offer.
        max_delay_ms: Upper bound on total one-way path delay.
    """

    src: str
    dst: str
    min_bandwidth_mbps: float
    max_delay_ms: float

    def __post_init__(self) -> None:
        if self.min_bandwidth_mbps < 0:
            raise ValueError("bandwidth bound cannot be negative")
        if self.max_delay_ms <= 0:
            raise ValueError("delay bound must be positive")


@dataclass
class ComputedPath:
    """A feasible path: ordered link ids plus its aggregate metrics."""

    link_ids: Tuple[str, ...]
    delay_ms: float
    bottleneck_mbps: float


def _dijkstra(
    topo: Topology,
    src: str,
    dst: str,
    min_bw: float,
    excluded_links: Optional[set] = None,
    excluded_nodes: Optional[set] = None,
) -> Optional[List[str]]:
    """Delay-shortest path over links with residual ≥ ``min_bw``.

    Returns the link-id sequence or None if ``dst`` is unreachable.
    """
    excluded_links = excluded_links or set()
    excluded_nodes = excluded_nodes or set()
    if not topo.has_node(src) or not topo.has_node(dst):
        return None
    dist: Dict[str, float] = {src: 0.0}
    prev: Dict[str, Tuple[str, str]] = {}  # node -> (prev_node, link_id)
    heap: List[Tuple[float, str]] = [(0.0, src)]
    visited: set = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            break
        for link in topo.usable_out_links(node, min_residual_mbps=min_bw):
            if link.link_id in excluded_links or link.dst in excluded_nodes:
                continue
            nd = d + link.delay_ms
            if nd < dist.get(link.dst, float("inf")):
                dist[link.dst] = nd
                prev[link.dst] = (node, link.link_id)
                heapq.heappush(heap, (nd, link.dst))
    if dst not in dist or dst not in prev and src != dst:
        if src == dst:
            return []
        return None
    path: List[str] = []
    at = dst
    while at != src:
        node, link_id = prev[at]
        path.append(link_id)
        at = node
    path.reverse()
    return path


_UNSEARCHED = object()


def _search(topo: Topology, request: PathRequest, min_bw: float) -> Optional[Tuple[Link, ...]]:
    found = _dijkstra(topo, request.src, request.dst, min_bw)
    return None if found is None else tuple(topo.link(lid) for lid in found)


def constrained_shortest_path(topo: Topology, request: PathRequest) -> ComputedPath:
    """CSPF: minimum-delay path meeting both bandwidth and delay bounds.

    The delay-shortest route over the up links is searched once per
    ``(src, dst)`` and link-state change (``Topology.shortest_up_paths``)
    and its links' residuals re-read per request.  If every one fits,
    that route *is* the pruned search's answer: pruning only removes
    candidates, and Dijkstra's (distance, name) visiting order and
    first-strict-improvement ``prev`` keep the unpruned winner on any
    subgraph that still contains it.  Only a route that does not fit
    pays for the pruned search.

    Raises:
        PathComputationError: If no path satisfies the constraints —
            the message distinguishes "disconnected" from "too slow".
    """
    if request.src == request.dst:
        return ComputedPath(link_ids=(), delay_ms=0.0, bottleneck_mbps=float("inf"))
    key = (request.src, request.dst)
    hops = topo.shortest_up_paths.get(key, _UNSEARCHED)
    if hops is _UNSEARCHED:
        hops = topo.shortest_up_paths[key] = _search(topo, request, float("-inf"))
    floor = request.min_bandwidth_mbps - 1e-9  # usable_out_links' tolerance
    if hops is not None and not all(h.up and h.residual_mbps >= floor for h in hops):
        hops = _search(topo, request, request.min_bandwidth_mbps)
    if hops is None:
        raise PathComputationError(
            f"no path {request.src}->{request.dst} with "
            f"≥{request.min_bandwidth_mbps:.1f} Mb/s residual"
        )
    delay = sum(h.delay_ms for h in hops)
    if delay > request.max_delay_ms + 1e-9:
        raise PathComputationError(
            f"best path {request.src}->{request.dst} has delay {delay:.2f} ms "
            f"> bound {request.max_delay_ms:.2f} ms"
        )
    return ComputedPath(
        link_ids=tuple(h.link_id for h in hops),
        delay_ms=delay,
        bottleneck_mbps=min(h.residual_mbps for h in hops),
    )


def k_shortest_paths(
    topo: Topology,
    request: PathRequest,
    k: int = 3,
) -> List[ComputedPath]:
    """Yen's algorithm: up to ``k`` loop-free delay-ranked feasible paths.

    Every returned path satisfies both constraints of ``request``.
    Returns fewer than ``k`` paths (possibly zero) when the topology
    does not admit more.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    try:
        first = constrained_shortest_path(topo, request)
    except PathComputationError:
        return []
    if not first.link_ids:
        return [first]
    accepted: List[ComputedPath] = [first]
    candidates: List[Tuple[float, int, Tuple[str, ...]]] = []
    seen: set = {first.link_ids}
    counter = 0

    def node_sequence(link_ids: Tuple[str, ...]) -> List[str]:
        nodes = [request.src]
        for lid in link_ids:
            nodes.append(topo.link(lid).dst)
        return nodes

    while len(accepted) < k:
        prev_path = accepted[-1].link_ids
        prev_nodes = node_sequence(prev_path)
        for i in range(len(prev_path)):
            spur_node = prev_nodes[i]
            root = prev_path[:i]
            excluded_links = set()
            for path in accepted:
                if path.link_ids[:i] == root and len(path.link_ids) > i:
                    excluded_links.add(path.link_ids[i])
            excluded_nodes = set(prev_nodes[:i])  # loop-free
            spur = _dijkstra(
                topo,
                spur_node,
                request.dst,
                request.min_bandwidth_mbps,
                excluded_links=excluded_links,
                excluded_nodes=excluded_nodes,
            )
            if spur is None:
                continue
            total = tuple(root) + tuple(spur)
            if total in seen:
                continue
            seen.add(total)
            delay = topo.path_delay_ms(total)
            if delay > request.max_delay_ms + 1e-9:
                continue
            counter += 1
            heapq.heappush(candidates, (delay, counter, total))
        if not candidates:
            break
        delay, _, links = heapq.heappop(candidates)
        accepted.append(
            ComputedPath(
                link_ids=links,
                delay_ms=delay,
                bottleneck_mbps=topo.path_residual_mbps(links),
            )
        )
    return accepted


__all__ = [
    "ComputedPath",
    "PathComputationError",
    "PathRequest",
    "constrained_shortest_path",
    "k_shortest_paths",
]
