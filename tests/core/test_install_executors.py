"""The two install executors are one contract.

``Orchestrator.install_admitted`` (blocking ``install_sequentially`` on
the calling thread) and ``install_admitted_batch`` (the async
``BatchInstallPlanner``) stage a slice through the same helper and
finish in the same bookkeeping, so the same request stream must leave
the same control plane behind whichever executor ran it.
"""

from __future__ import annotations

import numpy as np

from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.slices import SLA, ServiceType, SliceRequest
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile

N_REQUESTS = 60


def request_stream(seed: int):
    """``(arrival time, SliceRequest kwargs)`` pairs; sized so the
    canonical testbed runs out of radio for some and expires others."""
    rng = np.random.default_rng(seed)
    now = 0.0
    for index in range(N_REQUESTS):
        now += float(rng.exponential(40.0))
        urllc = rng.random() < 0.3
        yield now, dict(
            request_id=f"req-{700_000 + index:06d}",
            tenant_id=f"tenant-{int(rng.integers(4))}",
            service_type=ServiceType.URLLC if urllc else ServiceType.EMBB,
            sla=SLA(
                throughput_mbps=float(rng.choice([5.0, 10.0, 20.0, 35.0])),
                max_latency_ms=8.0 if urllc else 50.0,
                duration_s=float(rng.choice([120.0, 600.0, 3_600.0])),
            ),
            price=float(rng.uniform(50.0, 150.0)),
            penalty_rate=1.0,
            arrival_time=now,
        )


def build_stack(durability_dir):
    testbed = build_testbed(TestbedConfig())
    sim = Simulator()
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=5),
        config=OrchestratorConfig(
            durability_dir=str(durability_dir),
            checkpoint_every_records=0,  # keep the whole journal readable
        ),
    )
    orchestrator.start()
    return testbed, sim, orchestrator


def reservation_view(orchestrator):
    """Per live slice, per domain: the reservation minus object handles
    and the Heat stack id (drawn from one process-wide counter)."""
    return {
        slice_id: {
            domain: {
                "id": r.reservation_id,
                "state": r.state.value,
                "fraction": r.spec.effective_fraction,
                "details": {
                    key: value
                    for key, value in r.details.items()
                    if isinstance(value, (str, int, float, list))
                    and key != "stack_id"
                },
            }
            for domain, r in runtime.reservations.items()
        }
        for slice_id, runtime in orchestrator.fleet.runtimes.items()
    }


def journal_types(orchestrator):
    """Record-type sequence, minus the per-driver ``driver.*`` audit
    trail only the planner's ``on_record`` hook writes (never folded)."""
    return [
        record.record_type
        for record in orchestrator.store.records()
        if not record.record_type.startswith("driver.")
    ]


def test_one_at_a_time_equals_windows_of_one(tmp_path):
    _, sim_sync, sync = build_stack(tmp_path / "sync")
    _, sim_batch, batch = build_stack(tmp_path / "batch")
    decisions_sync, decisions_batch = [], []
    for now, kwargs in request_stream(seed=17):
        sim_sync.run_until(now)
        sim_batch.run_until(now)
        profile = ConstantProfile(kwargs["sla"].throughput_mbps, level=0.5, noise_std=0.0)
        decisions_sync.append(
            sync.install_admitted(SliceRequest(**kwargs), profile)
        )
        decisions_batch.extend(
            batch.install_admitted_batch([(SliceRequest(**kwargs), profile)])
        )
        assert reservation_view(sync) == reservation_view(batch)
    assert decisions_sync == decisions_batch
    # The stream exercises both outcomes, or the comparison is hollow.
    admitted = sum(d.admitted for d in decisions_sync)
    assert 0 < admitted < N_REQUESTS
    assert [e.to_dict() for e in sync.events.since(0)] == [
        e.to_dict() for e in batch.events.since(0)
    ]
    assert journal_types(sync) == journal_types(batch)
    assert "install.started" in journal_types(sync)
