"""Property-based equivalence of the remembered shortest route.

``constrained_shortest_path`` answers from ``Topology.shortest_up_paths``
— the delay-shortest route per ``(src, dst)`` over the up links, searched
once per link-state change — after re-reading every remembered link's
residual, and searches with the residual floor only when that route does
not fit.  The contract is that nobody can tell: the reference here is
the search it replaced (``_dijkstra`` with the request's floor, then
``path_delay_ms`` and ``path_residual_mbps``), and after every step of a
random schedule of reserve / renominate / release / fail / restore —
through the controller and directly on the ``Link`` — and ``add_link``
(some added already down), random queries must return the same
``link_ids``, ``delay_ms`` and ``bottleneck_mbps`` with ``==`` or raise
``PathComputationError`` with the same text.

The graphs are directed multigraphs with parallel links, repeated delays
and zero-delay links, over node names whose order disagrees with their
distance — the cases where Dijkstra's tie-breaks decide the winner.
"""

from __future__ import annotations

import os
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.transport.controller import TransportController, TransportError
from repro.transport.links import Link, LinkError
from repro.transport.paths import (
    ComputedPath,
    PathComputationError,
    PathRequest,
    _dijkstra,
    constrained_shortest_path,
)
from repro.transport.topology import Topology

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=60 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

NODES = ("m", "z", "a", "gw", "b", "y")
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 2.5)
CAPACITIES = (10.0, 40.0, 40.0, 100.0)
BANDWIDTHS = (1.0, 3.0, 7.5, 10.0, 33.3, 40.0)
FRACTIONS = (1.0, 0.7, 0.35)


def reference(topo: Topology, request: PathRequest) -> ComputedPath:
    """``constrained_shortest_path`` before the memo: one pruned search
    per request."""
    if request.src == request.dst:
        return ComputedPath(link_ids=(), delay_ms=0.0, bottleneck_mbps=float("inf"))
    links = _dijkstra(topo, request.src, request.dst, request.min_bandwidth_mbps)
    if links is None:
        raise PathComputationError(
            f"no path {request.src}->{request.dst} with "
            f"≥{request.min_bandwidth_mbps:.1f} Mb/s residual"
        )
    delay = topo.path_delay_ms(links)
    if delay > request.max_delay_ms + 1e-9:
        raise PathComputationError(
            f"best path {request.src}->{request.dst} has delay {delay:.2f} ms "
            f"> bound {request.max_delay_ms:.2f} ms"
        )
    return ComputedPath(
        link_ids=tuple(links),
        delay_ms=delay,
        bottleneck_mbps=topo.path_residual_mbps(links),
    )


def outcome(fn, topo: Topology, request: PathRequest):
    try:
        return fn(topo, request)
    except PathComputationError as exc:
        return str(exc)


def random_request(topo: Topology, rng: random.Random) -> PathRequest:
    links = topo.links()
    # Floors on, just under and just over a live residual: the tolerance
    # the walk and the search must share.
    edge = rng.choice(links).residual_mbps if links else 5.0
    min_bw = rng.choice(
        (0.0, 1.0, 9.5, 39.999, 1_000.0, edge, edge + 5e-10, edge + 2e-9, edge / 2)
    )
    return PathRequest(
        src=rng.choice(NODES + ("ghost",)),
        dst=rng.choice(NODES + ("ghost",)),
        min_bandwidth_mbps=max(0.0, min_bw),
        max_delay_ms=rng.choice((0.25, 1.0, 2.0, 3.5, 100.0)),
    )


def check(topo: Topology, rng: random.Random) -> None:
    for _ in range(4):
        request = random_request(topo, rng)
        want = outcome(reference, topo, request)
        got = outcome(constrained_shortest_path, topo, request)
        assert got == want, (request, got, want)
        if isinstance(got, ComputedPath):
            topo.validate_path(list(got.link_ids), request.src, request.dst)


def add_random_link(topo: Topology, rng: random.Random, name: str) -> None:
    src, dst = rng.sample(NODES, 2)
    link = Link(
        name, src, dst, capacity_mbps=rng.choice(CAPACITIES), delay_ms=rng.choice(DELAYS)
    )
    if rng.random() < 0.25:
        link.fail()  # added already down
    topo.add_link(link)


@SLOW
@given(seed=st.integers(0, 100_000), steps=st.integers(10, 80))
def test_memo_answers_what_the_search_would(seed, steps):
    rng = random.Random(seed)
    topo = Topology()
    controller = TransportController(topo)
    for index in range(rng.randint(4, 14)):
        add_random_link(topo, rng, f"l{index}")
    check(topo, rng)
    routed = []  # slice ids holding a controller path
    direct = []  # (link, slice id) reserved on the Link itself
    for step in range(steps):
        action = rng.random()
        bw, fraction = rng.choice(BANDWIDTHS), rng.choice(FRACTIONS)
        link = rng.choice(topo.links())
        try:
            if action < 0.20:
                src, dst = rng.sample(NODES, 2)
                controller.reserve_path(
                    f"s{step}", "00101", PathRequest(src, dst, bw, 100.0), fraction
                )
                routed.append(f"s{step}")
            elif action < 0.30 and routed:
                controller.modify_bandwidth(rng.choice(routed), bw, fraction)
            elif action < 0.40 and routed:
                controller.release_path(routed.pop(rng.randrange(len(routed))))
            elif action < 0.48 and routed:
                controller.repair_path(rng.choice(routed))
            elif action < 0.58:
                link.reserve(f"x{step}", bw, bw * fraction)
                direct.append((link, f"x{step}"))
            elif action < 0.64 and direct:
                held, slice_id = rng.choice(direct)
                held.renominate(slice_id, bw, bw * fraction)
            elif action < 0.72 and direct:
                held, slice_id = direct.pop(rng.randrange(len(direct)))
                held.release(slice_id)
            elif action < 0.82:
                link.fail()
            elif action < 0.92:
                link.restore()
            else:
                add_random_link(topo, rng, f"n{step}")
        except (TransportError, LinkError):
            pass  # a refusal is a step too: the next queries still agree
        check(topo, rng)
        for held in topo.links():
            held.check_invariants()
        assert topo.down_link_ids == {held.link_id for held in topo.links() if not held.up}
