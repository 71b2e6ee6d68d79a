"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.slices import SLA, ServiceType, SliceRequest
from repro.experiments.testbed import Testbed, TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator at t=0."""
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(42)


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic random-stream registry."""
    return RandomStreams(seed=42)


@pytest.fixture
def testbed() -> Testbed:
    """The canonical Fig. 2 testbed."""
    return build_testbed(TestbedConfig())


@pytest.fixture
def path_searches(monkeypatch) -> list:
    """Every graph search the path layer runs from here on, as
    ``(src, dst, min_bw)`` — a spy on ``transport.paths._dijkstra``."""
    from repro.transport import paths

    calls = []
    plain = paths._dijkstra

    def spy(topo, src, dst, min_bw, *args, **kwargs):
        calls.append((src, dst, min_bw))
        return plain(topo, src, dst, min_bw, *args, **kwargs)

    monkeypatch.setattr(paths, "_dijkstra", spy)
    return calls


def free_prbs(ran) -> dict:
    """Physically free PRBs per cell of a RAN controller."""
    return {enb.enb_id: enb.grid.free_prbs for enb in ran.enbs()}


def flows_of(switch, slice_id) -> list:
    """A switch's flow entries for one slice, in table order."""
    return [entry for entry in switch._table if entry.slice_id == slice_id]


def usage_at(calendar, t: float):
    """A resource calendar's committed usage at instant ``t``."""
    return calendar._peak(t, t)


def make_request(
    throughput_mbps: float = 20.0,
    max_latency_ms: float = 50.0,
    duration_s: float = 3_600.0,
    price: float = 100.0,
    penalty_rate: float = 1.0,
    service_type: ServiceType = ServiceType.EMBB,
    tenant: str = "tenant-a",
    arrival_time: float = 0.0,
    availability: float = 0.95,
    n_users: int = 10,
) -> SliceRequest:
    """Build a slice request with sensible defaults (test helper)."""
    return SliceRequest(
        tenant_id=tenant,
        service_type=service_type,
        sla=SLA(
            throughput_mbps=throughput_mbps,
            max_latency_ms=max_latency_ms,
            duration_s=duration_s,
            availability=availability,
        ),
        price=price,
        penalty_rate=penalty_rate,
        arrival_time=arrival_time,
        n_users=n_users,
    )


def serve_slices(controller, demands_mbps, priorities=None) -> dict:
    """One epoch of ``demands_mbps`` (slice id → Mb/s) through the array
    ``RanController.serve_epoch``, each slice on the cell and with the
    reservation the controller holds for it: slice id → delivered Mb/s."""
    ids = list(demands_mbps)
    cells = [controller.serving_enb_of(s) for s in ids]
    delivered = controller.serve_epoch(
        ids,
        np.array([controller.cell_of(c) for c in cells], dtype=np.intp),
        np.array([demands_mbps[s] for s in ids], dtype=float),
        np.array(
            [controller.enb(c).grid.reservation(s).effective for s, c in zip(ids, cells)],
            dtype=np.int64,
        ),
        np.array([(priorities or {}).get(s, 0) for s in ids], dtype=np.int64),
    )
    return dict(zip(ids, delivered.tolist()))


@pytest.fixture
def request_factory():
    """Expose :func:`make_request` as a fixture."""
    return make_request
