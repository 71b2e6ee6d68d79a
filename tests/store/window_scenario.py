"""One small durable shard run that every revision of the control plane
drives the same way — the source of the older-format fixtures.

Two synchronous creates (one expires), a checkpoint, then one broker
window: three winners, a request the knapsack drops, and a winner no
``firewall`` attempt can hold (every attempt unwinds).  Last, one
request is left in an open window when the process dies.  Ids are fixed
strings and every driver resolves inline, so the southbound state and
the journal are a pure function of the revision that ran it.

``fixtures/parent-format/`` is this run written by the revision before
a transition record carried its own feed event and driver trail (format
1), and ``fixtures/current-format/`` by the revision before the journal
declared its format and wrote each request image once (format 2); each
holds its revision's ``events_after(0)`` of it too.  Regenerate one with
that revision's ``src`` first on the path::

    PYTHONPATH=<that revision's src>:. \\
        python -m tests.store.window_scenario tests/store/fixtures/<format dir>
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional, Tuple

from repro.core.broker import SliceBroker
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.slices import SLA, PlmnPool, ServiceType, SliceRequest
from repro.drivers.mock import MockDriver
from repro.experiments.testbed import Testbed, TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.store import ControlPlaneStore
from repro.traffic.patterns import ConstantProfile

SHARD = 0
PLMNS = 16
#: The window opens at CHECKPOINT_AT and flushes WINDOW_S later.
CHECKPOINT_AT = 70.0
WINDOW_S = 30.0
CRASH_AT = CHECKPOINT_AT + WINDOW_S + 1.0

#: name -> (Mb/s, lifetime s).  ``sync-short`` expires before the
#: checkpoint; ``e-too-big`` passes admission but exceeds the firewall.
SYNC = {"sync-short": (4.0, 60.0), "sync-long": (4.0, 3_600.0)}
WINDOW = {
    "a": (4.0, 3_600.0),
    "b": (4.0, 3_600.0),
    "c": (4.0, 3_600.0),
    "d-loser": (10_000.0, 3_600.0),
    "e-too-big": (30.0, 3_600.0),
}
OPEN = {"open": (4.0, 3_600.0)}
FIREWALL_MBPS = 25.0


def request(name: str, mbps: float, duration_s: float) -> SliceRequest:
    return SliceRequest(
        tenant_id="tenant-a",
        service_type=ServiceType.EMBB,
        sla=SLA(throughput_mbps=mbps, max_latency_ms=50.0, duration_s=duration_s),
        price=100.0,
        penalty_rate=1.0,
        request_id=f"req-{name}",
    )


def southbound() -> Testbed:
    testbed = build_testbed(
        TestbedConfig(n_enbs=2, max_plmns_per_enb=8, plmn_pool_size=PLMNS)
    )
    testbed.registry.register(MockDriver("firewall", capacity_mbps=FIREWALL_MBPS))
    return testbed


def control_plane(
    testbed: Testbed,
    directory: Optional[str] = None,
    store: Optional[ControlPlaneStore] = None,
) -> Orchestrator:
    """A fresh shard-0 control plane over ``testbed``: a new store under
    ``directory``, or the reopened ``store`` (the restart path)."""
    return Orchestrator(
        sim=Simulator(),
        allocator=testbed.allocator,
        plmn_pool=PlmnPool(size=PLMNS),
        config=OrchestratorConfig(
            durability_dir=directory, shard_id=SHARD, monitoring_epoch_s=60.0
        ),
        streams=RandomStreams(seed=7),
        registry=testbed.registry,
        store=store,
    )


def run(directory: str, through: str = "open") -> Tuple[Testbed, Orchestrator]:
    """Drive the run into ``directory`` and kill the process: right
    after the window flushed (``through="window"``) or once the open
    request is enqueued (``"open"``).  Returns the surviving southbound
    and the dead control plane."""
    testbed = southbound()
    orchestrator = control_plane(testbed, directory)
    orchestrator.start()
    for name, (mbps, lifetime) in SYNC.items():
        assert orchestrator.submit(request(name, mbps, lifetime), ConstantProfile(mbps)).admitted
    orchestrator.sim.run_until(CHECKPOINT_AT)
    orchestrator.durable.checkpoint()
    broker = SliceBroker(orchestrator, window_s=WINDOW_S)
    for name, (mbps, lifetime) in WINDOW.items():
        broker.submit(request(name, mbps, lifetime), ConstantProfile(mbps))
    orchestrator.sim.run_until(CRASH_AT)
    assert [d.admitted for d in broker.decisions] == [True, True, True, False, False]
    if through == "open":
        for name, (mbps, lifetime) in OPEN.items():
            broker.submit(request(name, mbps, lifetime), ConstantProfile(mbps))
    orchestrator.stop()
    orchestrator.store.close()
    return testbed, orchestrator


def main(directory: str) -> None:
    run(directory)
    store = ControlPlaneStore(directory, shard_id=SHARD)
    with open(os.path.join(directory, "events_after.json"), "w") as handle:
        json.dump(store.events_after(0), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(store.replay().digest())
    store.close()


if __name__ == "__main__":
    main(sys.argv[1])
