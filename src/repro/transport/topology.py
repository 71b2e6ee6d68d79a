"""Transport topology: a directed multigraph of :class:`Link` objects.

Nodes are plain strings (eNB aggregation points, switches, DC gateways).
Parallel links between the same node pair are allowed — the demo testbed
has parallel mmWave and µwave links precisely so the path engine can
choose per-slice between a fast-but-contended and a slower-but-free
route.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.transport.links import Link, LinkKind


class TopologyError(RuntimeError):
    """Raised on malformed topology operations."""


class Topology:
    """Directed multigraph with per-link capacity/delay annotations."""

    def __init__(self) -> None:
        self._nodes: Set[str] = set()
        self._links: Dict[str, Link] = {}
        self._out: Dict[str, List[str]] = {}  # node -> link_ids
        # Dirty-node tracking: every link mutation (reserve/renominate/
        # release/fail/restore, including direct calls that bypass the
        # TransportController) marks the link's source node in every
        # subscriber set, so consumers caching per-node aggregates can
        # revalidate only what changed.
        self._dirty_subscribers: List[Set[str]] = []
        #: Ids of the links currently down, kept by the same hook (a
        #: link added already down included) — read it, never write it.
        #: "Is this path up?" is ``down_link_ids.isdisjoint(link_ids)``
        #: and "is anything down?" its truth value, with no link walked.
        self.down_link_ids: Set[str] = set()
        #: ``(src, dst)`` -> the delay-shortest link sequence over the
        #: links that are up, whatever they carry (``None``: unreachable).
        #: ``paths.constrained_shortest_path`` fills it and re-reads every
        #: remembered link's residual per request, so a reservation
        #: invalidates nothing; it is emptied only where the answer can
        #: change — a link added, or a link going down or coming back.
        self.shortest_up_paths: Dict[Tuple[str, str], Optional[Tuple[Link, ...]]] = {}

    def subscribe_dirty(self) -> Set[str]:
        """Register and return a dirty-node set fed by link mutations.

        The caller owns the returned set: drain it (``set.clear`` or
        ``pop``) after refreshing whatever it caches per node.  Sets are
        deduplicating, so an idle consumer holds at most one entry per
        node.
        """
        dirty: Set[str] = set()
        self._dirty_subscribers.append(dirty)
        return dirty

    def _link_changed(self, link: Link) -> None:
        for subscriber in self._dirty_subscribers:
            subscriber.add(link.src)
        if link.up == (link.link_id in self.down_link_ids):  # went down / came back
            if link.up:
                self.down_link_ids.discard(link.link_id)
            else:
                self.down_link_ids.add(link.link_id)
            self.shortest_up_paths.clear()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: str) -> None:
        """Add a node (idempotent)."""
        self._nodes.add(node)
        self._out.setdefault(node, [])

    def add_link(self, link: Link) -> None:
        """Add a directed link; endpoints are auto-added.

        Raises:
            TopologyError: On duplicate link id.
        """
        if link.link_id in self._links:
            raise TopologyError(f"duplicate link id {link.link_id}")
        self.add_node(link.src)
        self.add_node(link.dst)
        self._links[link.link_id] = link
        self._out[link.src].append(link.link_id)
        link.on_change = self._link_changed
        self._link_changed(link)
        self.shortest_up_paths.clear()

    def add_duplex(
        self,
        name: str,
        a: str,
        b: str,
        kind: LinkKind = LinkKind.FIBER,
        capacity_mbps: Optional[float] = None,
        delay_ms: Optional[float] = None,
    ) -> tuple:
        """Convenience: add a symmetric pair of links ``name-fwd``/``name-rev``."""
        fwd = Link(f"{name}-fwd", a, b, kind, capacity_mbps, delay_ms)
        rev = Link(f"{name}-rev", b, a, kind, capacity_mbps, delay_ms)
        self.add_link(fwd)
        self.add_link(rev)
        return fwd, rev

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Set[str]:
        """All node names."""
        return set(self._nodes)

    def links(self) -> List[Link]:
        """All links, insertion-ordered."""
        return list(self._links.values())

    def link(self, link_id: str) -> Link:
        """Lookup a link by id.

        Raises:
            TopologyError: If the id is unknown.
        """
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id}") from None

    def has_node(self, node: str) -> bool:
        """Whether the node exists."""
        return node in self._nodes

    def out_links(self, node: str) -> List[Link]:
        """Links departing ``node``.

        Raises:
            TopologyError: If the node is unknown.
        """
        if node not in self._nodes:
            raise TopologyError(f"unknown node {node}")
        return [self._links[lid] for lid in self._out[node]]

    def usable_out_links(
        self,
        node: str,
        min_residual_mbps: float = 0.0,
        predicate: Optional[Callable[[Link], bool]] = None,
    ) -> List[Link]:
        """Departing links that are up, have residual ≥ threshold and pass ``predicate``."""
        out = []
        for link in self.out_links(node):
            if not link.up:
                continue
            if link.residual_mbps < min_residual_mbps - 1e-9:
                continue
            if predicate is not None and not predicate(link):
                continue
            out.append(link)
        return out

    def path_delay_ms(self, link_ids: Iterable[str]) -> float:
        """Total one-way delay of a link sequence."""
        return sum(self.link(lid).delay_ms for lid in link_ids)

    def path_residual_mbps(self, link_ids: Iterable[str]) -> float:
        """Bottleneck residual capacity along a link sequence."""
        ids = list(link_ids)
        if not ids:
            return float("inf")
        return min(self.link(lid).residual_mbps for lid in ids)

    def validate_path(self, link_ids: List[str], src: str, dst: str) -> None:
        """Check a link sequence forms a connected src→dst walk.

        Raises:
            TopologyError: If the sequence is disconnected or misrouted.
        """
        at = src
        for lid in link_ids:
            link = self.link(lid)
            if link.src != at:
                raise TopologyError(
                    f"path broken at {lid}: expected source {at}, link starts at {link.src}"
                )
            at = link.dst
        if at != dst:
            raise TopologyError(f"path ends at {at}, expected {dst}")

    def utilization(self) -> dict:
        """Telemetry snapshot for the transport controller."""
        return {
            "nodes": sorted(self._nodes),
            "links": [link.utilization() for link in self._links.values()],
        }


__all__ = ["Topology", "TopologyError"]
