"""The failover drill's ``promotion_tracked_objects_per_slice`` counts
what a promotion's bind step leaves alive, not what the drill holds.

The drill records the promotion's bind batch (its slice ids and the
southbound listing, domain → slice id → reservation) and replays it on a
memory-only twin whose slices it built first.  The recorded listing is
alive before and after that replay, so were it handed over as is, a map
the bind keeps would be counted as already there, and one it copies as
new: the figure would move for a bind that holds exactly as much.
"""

from __future__ import annotations

import repro.store.recovery as recovery_module
from benchmarks.failover_drill import _tracked_objects_per_slice
from repro.core.orchestrator import Orchestrator
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request

SLICES = 12


def recorded_batch():
    """A testbed whose drivers hold ``SLICES`` committed slices, and the
    build batch, slice ids and listing a restart would hand over for them."""
    testbed = build_testbed(TestbedConfig(n_enbs=4, max_plmns_per_enb=12, plmn_pool_size=48))
    orch = Orchestrator(
        sim=Simulator(), allocator=testbed.allocator, plmn_pool=testbed.plmn_pool,
        registry=testbed.registry, streams=RandomStreams(seed=5),
    )
    orch.start()
    for _ in range(SLICES):
        assert orch.submit(
            make_request(throughput_mbps=2.0, duration_s=1e6), ConstantProfile(2.0)
        ).admitted
    orch.sim.run_until(10.0)
    adoptions = [
        (runtime.network_slice.request, None, runtime.effective_fraction, 0.0, 3.0, None)
        for runtime in orch.fleet.runtimes.values()
    ]
    slice_ids = list(orch.fleet.runtimes)
    truth = {
        driver.domain: {r.slice_id: r for r in driver.list_reservations()}
        for driver in testbed.registry.drivers()
    }
    assert len(slice_ids) == SLICES
    return testbed, adoptions, slice_ids, truth


def test_keeping_or_copying_the_handed_reservation_maps_reads_the_same(monkeypatch):
    batch = recorded_batch()
    _tracked_objects_per_slice(batch[0], 48, *batch[1:])  # warm every lazy cache
    kept = _tracked_objects_per_slice(batch[0], 48, *batch[1:])

    keeping = recovery_module.bind_recovered

    def copying(orchestrator, slice_ids, truth):
        copied = {domain: dict(held) for domain, held in truth.items()}
        return keeping(orchestrator, slice_ids, copied)

    monkeypatch.setattr(recovery_module, "bind_recovered", copying)
    copied = _tracked_objects_per_slice(batch[0], 48, *batch[1:])
    assert kept > 0
    assert copied == kept
