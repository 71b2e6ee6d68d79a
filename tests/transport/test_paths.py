"""Tests for constrained path computation (CSPF + Yen)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.transport.links import Link
from repro.transport.paths import (
    PathComputationError,
    PathRequest,
    constrained_shortest_path,
    k_shortest_paths,
)
from repro.transport.topology import Topology


@pytest.fixture
def diamond():
    """a → b → d (fast, thin) and a → c → d (slow, fat)."""
    t = Topology()
    t.add_link(Link("ab", "a", "b", capacity_mbps=50, delay_ms=1))
    t.add_link(Link("bd", "b", "d", capacity_mbps=50, delay_ms=1))
    t.add_link(Link("ac", "a", "c", capacity_mbps=500, delay_ms=5))
    t.add_link(Link("cd", "c", "d", capacity_mbps=500, delay_ms=5))
    return t


class TestCspf:
    def test_picks_min_delay(self, diamond):
        path = constrained_shortest_path(
            diamond, PathRequest("a", "d", min_bandwidth_mbps=10, max_delay_ms=100)
        )
        assert path.link_ids == ("ab", "bd")
        assert path.delay_ms == pytest.approx(2.0)
        assert path.bottleneck_mbps == pytest.approx(50.0)

    def test_bandwidth_constraint_reroutes(self, diamond):
        path = constrained_shortest_path(
            diamond, PathRequest("a", "d", min_bandwidth_mbps=100, max_delay_ms=100)
        )
        assert path.link_ids == ("ac", "cd")

    def test_delay_bound_violation_raises(self, diamond):
        with pytest.raises(PathComputationError) as excinfo:
            constrained_shortest_path(
                diamond, PathRequest("a", "d", min_bandwidth_mbps=100, max_delay_ms=5)
            )
        assert "delay" in str(excinfo.value)

    def test_disconnection_raises(self, diamond):
        with pytest.raises(PathComputationError) as excinfo:
            constrained_shortest_path(
                diamond, PathRequest("a", "d", min_bandwidth_mbps=1_000, max_delay_ms=100)
            )
        assert "no path" in str(excinfo.value)

    def test_same_node_trivial_path(self, diamond):
        path = constrained_shortest_path(
            diamond, PathRequest("a", "a", min_bandwidth_mbps=10, max_delay_ms=1)
        )
        assert path.link_ids == ()
        assert path.delay_ms == 0.0

    def test_reservations_affect_routing(self, diamond):
        diamond.link("ab").reserve("s1", 45.0, 45.0)
        path = constrained_shortest_path(
            diamond, PathRequest("a", "d", min_bandwidth_mbps=10, max_delay_ms=100)
        )
        assert path.link_ids == ("ac", "cd")

    def test_down_link_avoided(self, diamond):
        diamond.link("bd").fail()
        path = constrained_shortest_path(
            diamond, PathRequest("a", "d", min_bandwidth_mbps=10, max_delay_ms=100)
        )
        assert path.link_ids == ("ac", "cd")

    def test_bad_request_rejected(self):
        with pytest.raises(ValueError):
            PathRequest("a", "b", min_bandwidth_mbps=-1, max_delay_ms=10)
        with pytest.raises(ValueError):
            PathRequest("a", "b", min_bandwidth_mbps=1, max_delay_ms=0)


class TestYen:
    def test_returns_distinct_ranked_paths(self, diamond):
        paths = k_shortest_paths(
            diamond, PathRequest("a", "d", min_bandwidth_mbps=10, max_delay_ms=100), k=3
        )
        assert len(paths) == 2
        assert paths[0].delay_ms <= paths[1].delay_ms
        assert paths[0].link_ids != paths[1].link_ids

    def test_respects_constraints(self, diamond):
        paths = k_shortest_paths(
            diamond, PathRequest("a", "d", min_bandwidth_mbps=100, max_delay_ms=100), k=3
        )
        assert [p.link_ids for p in paths] == [("ac", "cd")]

    def test_no_feasible_returns_empty(self, diamond):
        paths = k_shortest_paths(
            diamond, PathRequest("a", "d", min_bandwidth_mbps=1_000, max_delay_ms=100)
        )
        assert paths == []

    def test_k_one_matches_cspf(self, diamond):
        request = PathRequest("a", "d", min_bandwidth_mbps=10, max_delay_ms=100)
        assert (
            k_shortest_paths(diamond, request, k=1)[0].link_ids
            == constrained_shortest_path(diamond, request).link_ids
        )

    def test_bad_k_rejected(self, diamond):
        with pytest.raises(ValueError):
            k_shortest_paths(
                diamond, PathRequest("a", "d", min_bandwidth_mbps=1, max_delay_ms=10), k=0
            )

    def test_paths_are_loop_free(self):
        t = Topology()
        # Ring with a chord: multiple routes a → d.
        for name, a, b, delay in [
            ("ab", "a", "b", 1),
            ("bc", "b", "c", 1),
            ("cd", "c", "d", 1),
            ("bd", "b", "d", 3),
            ("ad", "a", "d", 10),
        ]:
            t.add_link(Link(name, a, b, capacity_mbps=100, delay_ms=delay))
        paths = k_shortest_paths(
            t, PathRequest("a", "d", min_bandwidth_mbps=1, max_delay_ms=100), k=5
        )
        assert len(paths) == 3
        for path in paths:
            nodes = ["a"] + [t.link(lid).dst for lid in path.link_ids]
            assert len(nodes) == len(set(nodes))


def _edge(bw=50.0, delay=10.0, enb="enb1", gw="edge-dc-gw"):
    return PathRequest(f"{enb}-agg", gw, min_bandwidth_mbps=bw, max_delay_ms=delay)


class TestShortestRouteMemo:
    """The delay-shortest route per (src, dst) is searched once per
    link-state change; a request re-reads its links and searches only
    when it does not fit.  Counted on a spy over ``_dijkstra``."""

    def test_reservations_between_queries_cost_no_search(self, testbed, path_searches):
        topo = testbed.transport.topology
        for index in range(20):
            path = constrained_shortest_path(topo, _edge())
            assert path.link_ids == ("enb1-mmwave-fwd", "switch-edge-fwd")
            assert path.bottleneck_mbps == 1_000.0 - 20.0 * index
            testbed.transport.reserve_path(f"s{index}", f"001{index:02d}", _edge(bw=20.0))
        assert path_searches == [("enb1-agg", "edge-dc-gw", float("-inf"))]

    def test_any_link_going_down_empties_it_once(self, testbed, path_searches):
        topo = testbed.transport.topology
        pairs = [_edge(), _edge(gw="core-dc-gw")]
        for request in pairs:
            constrained_shortest_path(topo, request)
        assert len(path_searches) == 2 and len(topo.shortest_up_paths) == 2
        topo.link("enb2-uwave-fwd").fail()  # on neither remembered route
        assert topo.shortest_up_paths == {}
        topo.link("enb2-uwave-fwd").fail()  # already down: nothing flips
        for _ in range(5):
            for request in pairs:
                constrained_shortest_path(topo, request)
        assert len(path_searches) == 4  # one refill a pair, then none

    def test_uplink_failure_detours_and_restore_comes_back(self, testbed, path_searches):
        topo = testbed.transport.topology

        def ask_twice():
            first = constrained_shortest_path(topo, _edge())
            assert constrained_shortest_path(topo, _edge()) == first
            return first

        assert ask_twice().link_ids[0] == "enb1-mmwave-fwd"
        topo.link("enb1-mmwave-fwd").fail()
        detour = ask_twice()
        assert detour.link_ids == ("enb1-uwave-fwd", "switch-edge-fwd")
        assert detour.delay_ms == 2.5
        topo.link("enb1-mmwave-fwd").restore()
        assert ask_twice().link_ids[0] == "enb1-mmwave-fwd"
        assert len(path_searches) == 3  # one per link-state change

    def test_a_faster_link_is_adopted_by_the_next_query(self, testbed, path_searches):
        topo = testbed.transport.topology
        for _ in range(2):
            assert constrained_shortest_path(topo, _edge()).delay_ms == 1.5
        topo.add_link(Link("enb1-fibre", "enb1-agg", "of-switch", delay_ms=0.1))
        for _ in range(2):
            path = constrained_shortest_path(topo, _edge())
            assert path.link_ids == ("enb1-fibre", "switch-edge-fwd")
            assert path.delay_ms == 0.6
        assert len(path_searches) == 2

    def test_an_unreachable_pair_is_remembered_until_a_link_comes_up(
        self, testbed, path_searches
    ):
        topo = testbed.transport.topology
        topo.link("enb1-mmwave-fwd").fail()
        topo.link("enb1-uwave-fwd").fail()
        messages = set()
        for _ in range(6):
            with pytest.raises(PathComputationError) as excinfo:
                constrained_shortest_path(topo, _edge())
            messages.add(str(excinfo.value))
        assert messages == {"no path enb1-agg->edge-dc-gw with ≥50.0 Mb/s residual"}
        assert len(path_searches) == 1
        topo.link("enb1-uwave-fwd").restore()
        assert constrained_shortest_path(topo, _edge()).link_ids[0] == "enb1-uwave-fwd"
        assert len(path_searches) == 2

    def test_a_full_route_pays_one_pruned_search_per_query(self, testbed, path_searches):
        """The regime the memo does not serve: the shortest route is up
        but full, so every request that does not fit it searches."""
        topo = testbed.transport.topology
        topo.link("enb1-mmwave-fwd").reserve("hog", 990.0, 990.0)
        for _ in range(3):
            spill = constrained_shortest_path(topo, _edge())
            assert spill.link_ids[0] == "enb1-uwave-fwd"
        assert [floor for _, _, floor in path_searches] == [float("-inf"), 50.0, 50.0, 50.0]
        del path_searches[:]
        # What still fits the remembered route is answered from it.
        assert constrained_shortest_path(topo, _edge(bw=10.0)).link_ids[0] == "enb1-mmwave-fwd"
        assert path_searches == []


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_nodes=st.integers(min_value=3, max_value=8),
    bw=st.floats(min_value=1.0, max_value=80.0),
    delay_bound=st.floats(min_value=1.0, max_value=50.0),
)
def test_property_cspf_results_always_feasible(seed, n_nodes, bw, delay_bound):
    """On random graphs, any path CSPF returns satisfies the request and
    is a valid connected walk."""
    import numpy as np

    rng = np.random.default_rng(seed)
    topo = Topology()
    nodes = [f"n{i}" for i in range(n_nodes)]
    lid = 0
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i != j and rng.random() < 0.5:
                topo.add_link(
                    Link(
                        f"l{lid}",
                        nodes[i],
                        nodes[j],
                        capacity_mbps=float(rng.uniform(10, 100)),
                        delay_ms=float(rng.uniform(0.5, 10)),
                    )
                )
                lid += 1
    for node in nodes:
        topo.add_node(node)
    request = PathRequest(nodes[0], nodes[-1], min_bandwidth_mbps=bw, max_delay_ms=delay_bound)
    try:
        path = constrained_shortest_path(topo, request)
    except PathComputationError:
        return
    topo.validate_path(list(path.link_ids), nodes[0], nodes[-1])
    assert path.delay_ms <= delay_bound + 1e-9
    assert path.bottleneck_mbps >= bw - 1e-9
