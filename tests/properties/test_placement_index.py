"""Property-based equivalence of the delta-maintained placement index.

``RanController.best_enb_for`` answers from a sorted free-capacity
index updated incrementally on every install/resize/modify/remove (and
consulted with ``PlannedCellLoad`` staging overlaid).  These tests
drive randomized operation schedules and assert, after every step,
that:

- the index matches a from-scratch recompute (``verify_index``),
- ``best_enb_for`` — with and without planned staging — returns exactly
  what the historical O(#eNB) full scan returned, including its
  tie-break (earliest-registered cell wins equal free PRBs),
- the O(1) fleet aggregates (``total_free_prbs``/``max_free_prbs``)
  match their sums,
- the allocator's delta-maintained uplink aggregates survive direct
  link mutations that bypass the transport controller,
- the datacenter's best-fit index answers exactly like
  ``BestFitPlacement``'s ``min`` scan under random boot/destroy churn.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.slices import PLMN
from repro.ran.controller import PlannedCellLoad, RanController
from repro.ran.enb import ENodeB, RanConfigError

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=25 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def reference_best_enb_for(
    controller: RanController,
    effective_prbs: int,
    planned: Optional[Dict[str, PlannedCellLoad]] = None,
) -> Optional[str]:
    """The historical full scan ``best_enb_for`` replaced: walk every
    cell in registration order, strictly-greater free PRBs wins (so the
    earliest-registered cell keeps ties)."""
    planned = planned or {}
    none_pending = PlannedCellLoad()
    best = None
    best_free = effective_prbs - 1
    for enb in controller.enbs():
        pending = planned.get(enb.enb_id, none_pending)
        if enb.installed_count() + pending.slices >= enb.max_plmns:
            continue
        free = enb.grid.free_prbs - pending.prbs
        if free >= effective_prbs and free > best_free:
            best, best_free = enb.enb_id, free
    return best


def _check_equivalence(controller: RanController, planned=None) -> None:
    controller.verify_index()
    frees = [enb.grid.free_prbs for enb in controller.enbs()]
    assert controller.total_free_prbs() == sum(frees)
    assert controller.max_free_prbs() == (max(frees) if frees else 0)
    # Probe a spread of demands, including the boundary values where
    # the index scan's break conditions fire.
    probes = {1, 5, 20, 50, 100, max(frees, default=1), max(frees, default=1) + 1}
    for demand in probes:
        if demand <= 0:
            continue
        assert controller.best_enb_for(10.0, demand, planned) == reference_best_enb_for(
            controller, demand, planned
        ), f"index disagrees with full scan for demand={demand} planned={planned}"


#: One schedule step: (action selector, cell selector, PRB/throughput
#: magnitude, overbooking fraction).
STEP = st.tuples(
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=9),
    st.floats(min_value=1.0, max_value=120.0),
    st.floats(min_value=0.25, max_value=1.0),
)


@SLOW
@given(
    n_enbs=st.integers(min_value=1, max_value=6),
    max_plmns=st.integers(min_value=1, max_value=4),
    steps=st.lists(STEP, min_size=1, max_size=40),
)
def test_index_matches_full_recompute_under_random_schedules(
    n_enbs, max_plmns, steps
):
    """After any install/resize/modify/remove schedule the index answers
    exactly like the historical full scan."""
    controller = RanController(
        [
            ENodeB(f"enb{i}", bandwidth_mhz=10.0, max_plmns=max_plmns)
            for i in range(n_enbs)
        ]
    )
    installed: list = []
    throughput: dict = {}  # slice id -> the SLA throughput it is dimensioned for
    counter = 0
    for action, which, magnitude, fraction in steps:
        kind = action % 4
        if kind == 0 or not installed:  # install
            counter += 1
            slice_id = f"s{counter}"
            plmn = PLMN("001", f"{counter % 100:02d}")
            try:
                controller.install_slice(
                    slice_id, plmn, magnitude, effective_fraction=fraction
                )
            except RanConfigError:
                pass  # fleet full — a legal outcome, index must still hold
            else:
                installed.append(slice_id)
                throughput[slice_id] = magnitude
        elif kind == 1:  # resize: the overbooking knob under an unchanged nominal
            slice_id = installed[which % len(installed)]
            try:
                controller.modify_slice(slice_id, throughput[slice_id], fraction)
            except RanConfigError:
                pass  # growing back did not fit — reservation unchanged
        elif kind == 2:  # modify (re-dimension to a new SLA)
            slice_id = installed[which % len(installed)]
            try:
                controller.modify_slice(slice_id, magnitude, fraction)
            except RanConfigError:
                pass
            else:
                throughput[slice_id] = magnitude
        else:  # remove
            slice_id = installed.pop(which % len(installed))
            controller.remove_slice(slice_id)
        _check_equivalence(controller)


@SLOW
@given(
    n_enbs=st.integers(min_value=1, max_value=6),
    max_plmns=st.integers(min_value=1, max_value=4),
    installs=st.lists(
        st.floats(min_value=1.0, max_value=80.0), min_size=0, max_size=8
    ),
    staged=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),  # cell selector
            st.integers(min_value=0, max_value=60),  # staged PRBs
        ),
        min_size=0,
        max_size=10,
    ),
)
def test_planned_load_accounting_matches_full_scan(
    n_enbs, max_plmns, installs, staged
):
    """Staged-but-uninstalled load (``PlannedCellLoad``) is accounted
    identically by the index path and the full scan — each batch pick
    must see the picks before it."""
    controller = RanController(
        [
            ENodeB(f"enb{i}", bandwidth_mhz=10.0, max_plmns=max_plmns)
            for i in range(n_enbs)
        ]
    )
    for i, throughput in enumerate(installs):
        try:
            controller.install_slice(f"s{i}", PLMN("001", f"{i:02d}"), throughput)
        except RanConfigError:
            pass
    planned: Dict[str, PlannedCellLoad] = {}
    for which, prbs in staged:
        enb_id = f"enb{which % n_enbs}"
        planned.setdefault(enb_id, PlannedCellLoad()).add(prbs)
        _check_equivalence(controller, planned)
    # A planned entry for a cell that no longer exists must be skipped,
    # exactly like the full scan skips it.
    planned["enb-gone"] = PlannedCellLoad(prbs=5, slices=1)
    _check_equivalence(controller, planned)


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=99),  # action selector
            st.integers(min_value=0, max_value=19),  # link selector
            st.floats(min_value=1.0, max_value=200.0),  # bandwidth
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_uplink_aggregates_survive_direct_link_churn(seed, steps):
    """The allocator's cached uplink max/sum stay equal to a recompute
    even when links are failed/restored/reserved *directly* (bypassing
    the transport controller), via the topology's dirty-node feed."""
    from repro.experiments.testbed import build_testbed

    testbed = build_testbed()
    allocator = testbed.allocator
    topology = testbed.transport.topology
    links = topology.links()
    reserved: list = []
    counter = 0
    for action, which, bandwidth in steps:
        link = links[which % len(links)]
        kind = action % 4
        if kind == 0:
            link.fail()
        elif kind == 1:
            link.restore()
        elif kind == 2:
            counter += 1
            slice_id = f"p{counter}"
            try:
                link.reserve(slice_id, bandwidth, bandwidth)
            except Exception:
                pass  # over capacity — reservation refused, state unchanged
            else:
                reserved.append((link, slice_id))
        elif reserved:
            link_held, slice_id = reserved.pop((action // 4) % len(reserved))
            link_held.release(slice_id)
        allocator.verify_uplink_aggregates()
        # The vectors the hot path serves must equal a recompute.
        best_by_node = {}
        for enb in testbed.ran.enbs():
            node = enb.transport_node
            if node not in best_by_node:
                best_by_node[node] = max(
                    (
                        l.residual_mbps
                        for l in topology.out_links(node)
                        if l.up
                    ),
                    default=0.0,
                )
        expected_max = max(best_by_node.values(), default=0.0)
        expected_sum = sum(
            best_by_node[enb.transport_node] for enb in testbed.ran.enbs()
        )
        assert abs(allocator.free_vector().mbps - expected_max) < 1e-6
        assert abs(allocator.aggregate_free_vector().mbps - expected_sum) < 1e-6


@SLOW
@given(
    n_nodes=st.integers(min_value=1, max_value=6),
    vcpus=st.integers(min_value=2, max_value=12),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=99),  # action selector
            st.integers(min_value=0, max_value=9),  # VM selector
            st.sampled_from(
                ["m1.tiny", "m1.small", "m1.medium", "m1.large", "m1.xlarge"]
            ),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_datacenter_fit_index_matches_best_fit_scan(n_nodes, vcpus, steps):
    """Under random boot/destroy churn the DC's sorted free-capacity
    index stays consistent (``verify_fit_index``) and ``best_fit_node``
    returns exactly the node ``BestFitPlacement``'s ``min`` scan picks,
    for every flavor size."""
    from repro.cloud.datacenter import ComputeNode, Datacenter, DatacenterTier
    from repro.cloud.datacenter import VirtualMachine
    from repro.cloud.flavors import FLAVORS
    from repro.cloud.placement import BestFitPlacement

    dc = Datacenter(
        "dc-prop",
        DatacenterTier.EDGE,
        nodes=[
            ComputeNode(f"n{i}", vcpus=vcpus, ram_gb=4.0 * vcpus, disk_gb=500.0)
            for i in range(n_nodes)
        ],
    )
    policy = BestFitPlacement()
    booted: list = []
    counter = 0
    for action, which, flavor_name in steps:
        if action % 3 != 0 or not booted:  # boot (2/3 of steps)
            counter += 1
            vm = VirtualMachine(f"vm{counter}", FLAVORS[flavor_name])
            node = dc.best_fit_node(vm.flavor)
            if node is not None:
                node.boot(vm)
                booted.append(vm)
        else:  # destroy
            vm = booted.pop(which % len(booted))
            dc.node(vm.node_id).destroy(vm.vm_id)
        dc.verify_fit_index()
        for probe in FLAVORS.values():
            expected = policy.choose_node(dc.nodes(), probe)
            got = dc.best_fit_node(probe)
            assert (got.node_id if got else None) == (
                expected.node_id if expected else None
            ), f"fit index disagrees with best-fit scan for {probe.name}"
