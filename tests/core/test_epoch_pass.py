"""The monitoring epoch's array pass against the per-slice loop it replaced.

``scalar_epoch`` is that loop, kept here as the oracle only: demand drawn
slice by slice in slice-id order, the dict-in/dict-out RAN serve, the
per-path transport-cap memo and the scalar SLA check.  The pass must give
the same bits and leave the noise generator in the same state.
"""

from __future__ import annotations

import math
import random
from copy import deepcopy
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.epoch import LiveSlotsError
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.forecasting import MovingAverageForecaster
from repro.core.overbooking import FixedOverbooking, ForecastOverbooking
from repro.core.slices import SLA, ServiceType, SliceRequest, SliceState
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.ran.scheduler import SliceAwareScheduler
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import (
    ConstantProfile,
    DiurnalProfile,
    OnOffProfile,
    SpikeProfile,
    TrafficProfile,
)
from repro.traffic.traces import TraceProfile


# ----------------------------------------------------------------------
# The oracle: the per-slice epoch loop, as it was
# ----------------------------------------------------------------------
def scalar_epoch(orch: Orchestrator, rng: np.random.Generator) -> list:
    """``(slice id, demand, delivered, violated)`` per ACTIVE slice."""
    now = orch.sim.now
    active = {
        sid: rt
        for sid, rt in sorted(orch.fleet.runtimes.items())
        if rt.network_slice.state is SliceState.ACTIVE
    }
    demands, priorities = {}, {}
    for slice_id, runtime in active.items():
        demands[slice_id] = orch.fleet.profile(runtime).demand(now, rng)
        priorities[slice_id] = runtime.network_slice.request.priority
    delivered_ran = serve_dicts(orch.allocator.ran, demands, priorities) if demands else {}
    spare: dict = {}
    rows = []
    for slice_id, runtime in active.items():
        demand = demands[slice_id]
        delivered = min(delivered_ran.get(slice_id, 0.0), transport_cap(orch, runtime, spare))
        entitled = min(demand, runtime.network_slice.request.sla.throughput_mbps)
        tolerance = orch.fleet.sla_monitor.tolerance
        rows.append((slice_id, demand, delivered, delivered < entitled * (1.0 - tolerance) - 1e-9))
    return rows


def serve_dicts(ran, demands_mbps: dict, priorities: dict) -> dict:
    delivered = {}
    for enb in ran.enbs():
        local = {s: demands_mbps[s] for s in enb.installed_slices() if s in demands_mbps}
        if not local:
            continue
        per_prb = enb.throughput_per_prb()
        grants = SliceAwareScheduler(enb.grid.total_prbs).dispatch(
            {s: d / per_prb for s, d in local.items()},
            {s: enb.grid.reservation(s).effective for s in local},
            priorities={s: priorities.get(s, 0) for s in local},
        )
        for slice_id, prbs in grants.items():
            delivered[slice_id] = prbs * per_prb
    return delivered


def transport_cap(orch: Orchestrator, runtime, spare: dict) -> float:
    allocation = runtime.network_slice.allocation
    if allocation is None:
        return 0.0
    link_ids = allocation.transport.path.link_ids
    if not link_ids:
        return float("inf")
    borrowable = spare.get(link_ids)
    if borrowable is None:
        topo = orch.allocator.transport.topology
        borrowable = spare[link_ids] = (
            max(0.0, topo.path_residual_mbps(link_ids))
            if topo.down_link_ids.isdisjoint(link_ids)
            else float("-inf")
        )
    return max(0.0, allocation.transport.effective_mbps + borrowable)


def bits(values) -> list:
    return [float(v).hex() for v in values]


# ----------------------------------------------------------------------
# Fleets
# ----------------------------------------------------------------------
unit = st.floats(min_value=0.0, max_value=0.99)


@st.composite
def profiles(draw) -> TrafficProfile:
    peak = draw(st.sampled_from([1.0, 2.5, 5.0, 12.0, 20.0]))
    sigma = draw(st.sampled_from([0.0, 0.05, 0.3]))
    kind = draw(st.sampled_from(["constant", "diurnal", "onoff", "spike", "trace"]))
    if kind == "constant":
        return ConstantProfile(peak, level=draw(st.floats(0.0, 1.5)), noise_std=sigma)
    if kind == "diurnal":
        return DiurnalProfile(
            peak, base=draw(unit), phase=draw(st.floats(0.0, 3.0)),
            period_s=draw(st.sampled_from([3_600.0, 7_777.7, 43_200.0, 86_400.0])),
            noise_std=sigma,
        )
    if kind == "onoff":
        return OnOffProfile(
            peak, on_fraction=draw(st.floats(0.05, 1.0)),
            period_s=draw(st.floats(600.0, 5_400.0)), floor=draw(unit), noise_std=sigma,
        )
    if kind == "spike":
        every = draw(st.floats(300.0, 900.0))
        return SpikeProfile(
            peak, baseline=draw(unit), spike_every_s=every,
            spike_duration_s=draw(st.floats(10.0, every / 2)), noise_std=sigma,
        )
    return TraceProfile(
        peak, draw(st.lists(st.floats(0.0, 1.8), min_size=1, max_size=12)),
        sample_period_s=draw(st.sampled_from([60.0, 450.0, 900.0])),
        wrap=draw(st.booleans()), noise_std=sigma,
    )


def request(throughput_mbps: float, priority: int) -> SliceRequest:
    return SliceRequest(
        tenant_id="t", service_type=ServiceType.EMBB,
        sla=SLA(throughput_mbps=throughput_mbps, max_latency_ms=50.0, duration_s=1e7),
        price=10.0, penalty_rate=1.0, priority=priority,
    )


def fleet(cells: int, factor: float, slices: list) -> Orchestrator:
    testbed = build_testbed(TestbedConfig(n_enbs=cells, max_plmns_per_enb=12, plmn_pool_size=32))
    orch = Orchestrator(
        sim=Simulator(), allocator=testbed.allocator, plmn_pool=testbed.plmn_pool,
        overbooking=FixedOverbooking(factor), streams=RandomStreams(seed=3),
        registry=testbed.registry, config=OrchestratorConfig(deploy_time_s=1.0),
    )
    for profile, priority in slices:
        orch.submit(request(profile.peak_mbps, priority), profile)
    orch.sim.run_until(2.0)  # every admitted slice ACTIVE; no epoch runs
    return orch


def slice_ids(orch: Orchestrator) -> list:
    return [s.slice_id for s in orch.active_slices()]


def apply(orch: Orchestrator, op: tuple, extra: TrafficProfile) -> None:
    """One state change between two epochs; a change made here, outside
    the orchestrator, touches its slice as every writer there does."""
    kind, pick, value = op
    live = slice_ids(orch)
    target = orch.runtime(live[pick % len(live)]) if live else None
    links = orch.allocator.transport.topology.links()
    if kind == "advance":
        orch.sim.run_until(orch.sim.now + value)
    elif kind == "modify" and target is not None:
        orch.modify_slice(target.network_slice.slice_id, value)
    elif kind == "sla" and target is not None:  # replaced outside _resize_domains
        wanted = target.network_slice.request
        wanted.sla = replace(wanted.sla, throughput_mbps=value)
        orch.fleet.touch(target.network_slice.slice_id)
    elif kind == "peak" and target is not None:  # set in place, as modify_slice does
        target.profile.peak_mbps = value
        orch.fleet.touch(target.network_slice.slice_id)
    elif kind == "profile" and target is not None:
        target.profile = extra
        orch.fleet.touch(target.network_slice.slice_id)
    elif kind == "drop" and target is not None:  # as under a third-party data-plane driver
        target.network_slice.allocation = None
        orch.fleet.touch(target.network_slice.slice_id)
    elif kind == "terminate" and target is not None:
        orch.terminate_early(target.network_slice.slice_id)
    elif kind == "add":
        orch.submit(request(value, 1 + pick % 3), extra)
        orch.sim.run_until(orch.sim.now + 1.5)
    elif kind == "fail":
        links[pick % len(links)].fail()
    elif kind == "restore":
        links[pick % len(links)].restore()


ops = st.tuples(
    st.sampled_from(
        ["advance", "advance", "modify", "sla", "peak", "profile", "drop",
         "terminate", "add", "fail", "restore"]
    ),
    st.integers(0, 50),
    st.sampled_from([0.5, 3.0, 9.0, 25.0, 60.0, 777.7, 3_600.0]),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cells=st.integers(1, 3),
    factor=st.sampled_from([1.0, 2.0, 4.0]),
    slices=st.lists(st.tuples(profiles(), st.integers(1, 3)), min_size=1, max_size=10),
    steps=st.lists(st.tuples(ops, profiles()), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_pass_gives_the_bits_of_the_per_slice_loop(cells, factor, slices, steps, seed):
    orch = fleet(cells, factor, slices)
    slots = orch.fleet.live_slots
    oracle_rng, pass_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for op, extra in [(("advance", 0, 0.0), None), *steps]:
        apply(orch, op, extra)
        expected = scalar_epoch(orch, oracle_rng)
        served = slots.serve(orch.fleet, pass_rng)
        assert list(served.active) == [row[0] for row in expected]
        assert bits(served.demand) == bits(row[1] for row in expected)
        assert bits(served.delivered) == bits(row[2] for row in expected)
        assert served.violated.tolist() == [row[3] for row in expected]
        assert pass_rng.bit_generator.state == oracle_rng.bit_generator.state
        slots.verify(orch.fleet)


# ----------------------------------------------------------------------
# The order
# ----------------------------------------------------------------------
def twin(slices: list, seed: int, fail: Optional[int]) -> Orchestrator:
    """A forecast-overbooked fleet of ``slices``, its request ids fixed so
    that two twins hold the same slice ids; link ``fail`` (of the
    topology's, if any) fails before the first epoch."""
    testbed = build_testbed(TestbedConfig(n_enbs=2, max_plmns_per_enb=12, plmn_pool_size=32))
    orch = Orchestrator(
        sim=Simulator(), allocator=testbed.allocator, plmn_pool=testbed.plmn_pool,
        overbooking=ForecastOverbooking(quantile=0.6), streams=RandomStreams(seed=seed),
        registry=testbed.registry, forecaster_factory=lambda: MovingAverageForecaster(3),
        config=OrchestratorConfig(
            deploy_time_s=1.0, reconfig_every_epochs=1, min_history_for_forecast=3,
        ),
    )
    orch.start()
    for ordinal, (profile, priority) in enumerate(slices):
        wanted = request(profile.peak_mbps, priority)
        orch.submit(replace(wanted, request_id=f"req-twin-{ordinal:02d}"), deepcopy(profile))
    orch.sim.run_until(2.0)
    if fail is not None:
        links = orch.allocator.transport.topology.links()
        links[fail % len(links)].fail()
    return orch


def epoch_record(orch: Orchestrator) -> tuple:
    books = sorted(
        (sid, rt.last_demand_mbps, rt.last_delivered_mbps, rt.last_violated, rt.effective_fraction)
        for sid, rt in orch.fleet.runtimes.items()
    )
    feed = [
        (e.time, e.event_type, e.slice_id, e.data)
        for e in orch.events.since(0)
        if e.event_type in ("sla.violation", "slice.reconfigured", "slice.path_repaired")
    ]
    return books, feed


#: Eight noisy slices over two cells: link 0's outage is healed by
#: detours, link 10's violates every SLA; either example fails when the
#: epoch visits the runtimes in go-live order.
NOISY_FLEET = [(DiurnalProfile(12.0, base=0.3, noise_std=0.3), 1 + i % 3) for i in range(8)]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    slices=st.lists(st.tuples(profiles(), st.integers(1, 3)), min_size=2, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    before_epoch=st.integers(1, 4),
    shuffle=st.randoms(use_true_random=False),
    fail=st.none() | st.integers(0, 50),
)
@example(slices=NOISY_FLEET, seed=1, before_epoch=1, shuffle=random.Random(4), fail=0)
@example(slices=NOISY_FLEET, seed=1, before_epoch=1, shuffle=random.Random(4), fail=10)
def test_the_epoch_does_not_depend_on_the_runtimes_order(
    slices, seed, before_epoch, shuffle, fail
):
    """Twins of one spec and seed, one of which has ``fleet.runtimes``
    rebuilt in another insertion order before an epoch, give the same
    per-slice books and the same SLA, repair and reconfiguration events
    in feed order; both live-slot tables verify."""
    first, second = twin(slices, seed, fail), twin(slices, seed, fail)
    for epoch in range(1, 6):
        if epoch == before_epoch:
            runtimes = second.fleet.runtimes
            held = list(runtimes.items())
            shuffle.shuffle(held)
            runtimes.clear()
            runtimes.update(held)
        for orch in (first, second):
            orch.sim.run_until(epoch * 60.0 + 1.0)
            orch.fleet.live_slots.verify(orch.fleet)
        assert epoch_record(first) == epoch_record(second)


# ----------------------------------------------------------------------
# The row key
# ----------------------------------------------------------------------
def test_a_row_is_re_read_exactly_when_its_key_moves():
    orch = fleet(2, 2.0, [(DiurnalProfile(5.0, phase=i / 4), 1) for i in range(4)])
    slots, rng = orch.fleet.live_slots, np.random.default_rng(0)
    first, second, third, fourth = (orch.runtime(s) for s in slice_ids(orch))

    def rows_read() -> int:
        before = slots.refreshes
        slots.serve(orch.fleet, rng)
        slots.verify(orch.fleet)
        return slots.refreshes - before

    assert rows_read() == 4  # every slice claims a slot
    assert rows_read() == 0  # a quiet epoch reads nothing
    assert orch.modify_slice(first.network_slice.slice_id, 7.0).admitted  # allocation
    assert rows_read() == 1
    wanted = second.network_slice.request
    wanted.sla = replace(wanted.sla, throughput_mbps=2.0)  # the SLA alone
    orch.fleet.touch(second.network_slice.slice_id)
    assert rows_read() == 1
    third.profile.peak_mbps = 9.0  # the peak alone, in place
    orch.fleet.touch(third.network_slice.slice_id)
    assert rows_read() == 1
    fourth.profile = ConstantProfile(5.0)  # the profile object
    orch.fleet.touch(fourth.network_slice.slice_id)
    assert rows_read() == 1
    orch.fleet.touch(fourth.network_slice.slice_id)  # touched, its key where it was
    assert rows_read() == 0
    orch.terminate_early(first.network_slice.slice_id)
    assert rows_read() == 0 and len(slots._slot_of) == 3  # its slot freed


def test_verify_names_a_row_that_drifted_from_its_slice():
    orch = fleet(1, 1.0, [(ConstantProfile(5.0, level=0.5), 1)])
    slots = orch.fleet.live_slots
    slots.serve(orch.fleet, np.random.default_rng(0))
    slots._floats[slots._slot_of[slice_ids(orch)[0]], 6] = 123.0  # the SLA column
    with pytest.raises(LiveSlotsError, match="re-read"):
        slots.verify(orch.fleet)


def test_a_quiet_epoch_compares_no_row_key():
    orch = fleet(2, 2.0, [(DiurnalProfile(5.0, phase=i / 4), 1) for i in range(4)])
    slots, rng = orch.fleet.live_slots, np.random.default_rng(0)
    slots.serve(orch.fleet, rng)
    compared = slots.compared
    slots.serve(orch.fleet, rng)
    assert slots.compared == compared  # nothing touched, nothing compared
    assert orch.modify_slice(slice_ids(orch)[0], 7.0).admitted
    slots.serve(orch.fleet, rng)
    assert slots.compared == compared + 1


def test_verify_names_a_key_that_moved_untouched():
    orch = fleet(2, 1.0, [(ConstantProfile(5.0, level=0.5), 1) for _ in range(2)])
    slots = orch.fleet.live_slots
    slots.serve(orch.fleet, np.random.default_rng(0))
    orch.runtime(slice_ids(orch)[1]).profile.peak_mbps = 9.0  # no touch
    with pytest.raises(LiveSlotsError, match="untouched"):
        slots.verify(orch.fleet)


def test_verify_names_standing_rows_that_missed_a_transition():
    orch = fleet(2, 1.0, [(ConstantProfile(5.0, level=0.5), 1) for _ in range(2)])
    slots = orch.fleet.live_slots
    slots.serve(orch.fleet, np.random.default_rng(0))
    gone = slice_ids(orch)[0]
    orch.terminate_early(gone)
    slots.verify(orch.fleet)  # its slot is freed at the next sync
    slots.touched.discard(gone)  # as if the transition had not touched it
    with pytest.raises(LiveSlotsError, match="standing rows"):
        slots.verify(orch.fleet)


def test_a_profile_that_draws_its_own_demand_is_refused():
    class Bespoke(TrafficProfile):
        def fraction(self, t: float) -> float:
            return 0.5

        def demand(self, t, rng=None):
            return 1.0

    orch = fleet(1, 1.0, [(Bespoke(5.0), 1)])
    with pytest.raises(TypeError, match="Bespoke"):
        orch.fleet.live_slots.serve(orch.fleet, np.random.default_rng(0))


# ----------------------------------------------------------------------
# The host
# ----------------------------------------------------------------------
def test_numpy_cos_is_math_cos_on_the_diurnal_argument_grid():
    """The diurnal shape runs ``np.cos`` where the scalar loop ran
    ``math.cos``: 2π·cycle for epoch instants over two days, every
    period and a spread of phases the verticals and tests draw."""
    rng = np.random.default_rng(7)
    t = np.arange(0.0, 2 * 86_400.0, 60.0)
    cycles = [
        (t / period - phase) % 1.0
        for period in (3_600.0, 7_777.7, 43_200.0, 86_400.0)
        for phase in [0.0, *rng.uniform(0.0, 1.0, 12).tolist()]
    ]
    arguments = 2.0 * math.pi * np.concatenate([*cycles, rng.uniform(0.0, 1.0, 100_000)])
    mismatched = np.flatnonzero(np.cos(arguments) != [math.cos(a) for a in arguments.tolist()])
    assert not mismatched.size, (
        f"np.cos differs from math.cos at {mismatched.size} of {arguments.size} "
        f"arguments (first: {arguments[mismatched[0]]!r}) on this host: numpy's "
        "vectorised cos is not this libm's, so the epoch pass would draw "
        "different demand than the scalar profiles and every digest would move"
    )
