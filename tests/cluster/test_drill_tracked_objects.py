"""The failover drill's ``promotion_tracked_objects_per_slice`` counts
what an adoption leaves alive, not what the drill holds.

The drill records the promotion's adoption batch and replays it on a
memory-only twin.  The recorded batch is alive before and after that
replay, so were it handed over as is, a per-slice reservation map the
adoption keeps would be counted as already there, and one it copies as
new: the figure would read about one object per slice more for an
adoption that holds exactly as much.
"""

from __future__ import annotations

from benchmarks.failover_drill import _tracked_objects_per_slice
from repro.core.epoch import LiveFleet
from repro.core.orchestrator import Orchestrator
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request

SLICES = 12


def recorded_batch():
    """A testbed whose drivers hold ``SLICES`` committed slices, and the
    adoption batch a restart would hand over for them."""
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
    batch = [
        (runtime.network_slice.request, None, runtime.effective_fraction,
         dict(runtime.reservations), 0.0, 3.0, None)
        for runtime in orch.fleet.runtimes.values()
    ]
    assert len(batch) == SLICES
    return testbed, batch


def test_keeping_or_copying_the_handed_reservation_maps_reads_the_same(monkeypatch):
    testbed, batch = recorded_batch()
    _tracked_objects_per_slice(testbed, 48, batch)  # warm every lazy cache
    kept = _tracked_objects_per_slice(testbed, 48, batch)

    keeping = LiveFleet.go_live

    def copying(self, launches):
        return keeping(self, [(*launch[:3], dict(launch[3]), *launch[4:]) for launch in launches])

    monkeypatch.setattr(LiveFleet, "go_live", copying)
    copied = _tracked_objects_per_slice(testbed, 48, batch)
    assert kept > 0
    assert copied == kept
