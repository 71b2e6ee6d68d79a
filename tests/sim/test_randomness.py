"""Tests for the seeded random-stream registry."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.sim.randomness import RandomStreams


def test_same_seed_same_draws():
    a = RandomStreams(seed=7).stream("arrivals").random(5)
    b = RandomStreams(seed=7).stream("arrivals").random(5)
    assert np.allclose(a, b)


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("arrivals").random(5)
    b = RandomStreams(seed=2).stream("arrivals").random(5)
    assert not np.allclose(a, b)


def test_streams_are_independent_of_creation_order():
    reg1 = RandomStreams(seed=3)
    reg1.stream("x")  # create x first
    a = reg1.stream("y").random(5)
    reg2 = RandomStreams(seed=3)
    b = reg2.stream("y").random(5)  # y created first here
    assert np.allclose(a, b)


def test_distinct_names_give_distinct_streams():
    reg = RandomStreams(seed=5)
    a = reg.stream("a").random(5)
    b = reg.stream("b").random(5)
    assert not np.allclose(a, b)


def test_stream_is_cached():
    reg = RandomStreams(seed=5)
    assert reg.stream("cache") is reg.stream("cache")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["arrivals", "mobility", "demand-noise"])
def test_stream_is_the_keyed_seed_sequence_pcg64(seed, name):
    """A stream is ``SeedSequence(seed, spawn_key=(crc32(name),))`` +
    PCG64, so the shared streams' draws stay where they were."""
    key = zlib.crc32(name.encode("utf-8"))
    oracle = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,)))
    )
    assert np.array_equal(RandomStreams(seed=seed).stream(name).random(1_000), oracle.random(1_000))


def test_per_request_streams_are_not_retained(testbed):
    """Names keyed by a request or slice id are used once; 1 000 create
    + delete round trips must not leave 1 000 generators behind."""
    from repro.api import build_orchestrator_api
    from repro.core.orchestrator import Orchestrator, OrchestratorConfig
    from repro.sim.engine import Simulator

    sim = Simulator()
    streams = RandomStreams(seed=2)
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        config=OrchestratorConfig(simulate_ues=True),
        streams=streams,
    )
    orchestrator.start()
    api = build_orchestrator_api(orchestrator)
    body = {
        "service_type": "embb",
        "throughput_mbps": 10.0,
        "max_latency_ms": 50.0,
        "duration_s": 3_600.0,
        "price": 100.0,
        "penalty_rate": 1.0,
    }
    names_after_first = None
    for trip in range(1_000):
        created = api.post("/v1/slices", body=body)
        assert created.status == 201
        sim.run_until(sim.now + 61.0)  # ACTIVE (UEs attached), one epoch served
        assert api.delete(f"/v1/slices/{created.body['slice_id']}").ok
        if names_after_first is None:
            names_after_first = list(streams._streams)
    assert list(streams._streams) == names_after_first
