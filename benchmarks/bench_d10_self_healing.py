"""D10 (ablation) — transport self-healing under link failures.

DESIGN.md's failure-injection requirement, quantified: we run a steady
slice population over the Fig. 2 testbed, fail and restore the mmWave
uplinks on a cycle, and compare SLA violation rates and penalties with
the orchestrator's self-healing loop on vs. off.

Expected shape: with self-healing, slices detour onto µwave within one
monitoring epoch and the violation rate stays near the repair-epoch
floor; without it, every failure window converts fully into violations
and penalties.
"""

from __future__ import annotations

from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.experiments.testbed import build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request

from benchmarks.conftest import emit_table

FAIL_EVERY_S = 1_800.0
FAIL_FOR_S = 600.0
HORIZON_S = 4 * 3_600.0


def run_with_failures(self_healing: bool, seed: int = 3) -> dict:
    testbed = build_testbed()
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        config=OrchestratorConfig(self_healing=self_healing),
        streams=RandomStreams(seed=seed),
    )
    orch.start()
    # Four steady slices, two per cell, routed over mmWave initially.
    for i in range(4):
        request = make_request(throughput_mbps=12.0, duration_s=HORIZON_S)
        orch.submit(request, ConstantProfile(12.0, level=0.6, noise_std=0.02))
    # mmWave flaps: down for FAIL_FOR_S every FAIL_EVERY_S.
    topo = testbed.transport.topology
    mm_links = [f"enb{i + 1}-mmwave-fwd" for i in range(2)]

    def fail_links():
        for lid in mm_links:
            topo.link(lid).fail()

    def restore_links():
        for lid in mm_links:
            topo.link(lid).restore()

    t = FAIL_EVERY_S
    while t < HORIZON_S:
        sim.schedule_at(t, fail_links)
        sim.schedule_at(t + FAIL_FOR_S, restore_links)
        t += FAIL_EVERY_S
    sim.run_until(HORIZON_S - 100.0)
    return {
        "self_healing": self_healing,
        "violation_rate": orch.fleet.sla_monitor.violation_rate(),
        "penalties": orch.ledger.total_penalties,
        "repairs": testbed.transport.repairs_performed,
        "net_revenue": orch.ledger.net_revenue,
    }


def test_d10_self_healing_ablation(benchmark):
    rows = []
    results = {}
    for self_healing in (True, False):
        out = run_with_failures(self_healing)
        results[self_healing] = out
        rows.append(
            [
                "on" if self_healing else "off",
                out["repairs"],
                out["violation_rate"],
                out["penalties"],
                out["net_revenue"],
            ]
        )
    emit_table(
        "D10",
        "self-healing ablation (mmWave flaps 10 min every 30 min, 4 h)",
        ["self_healing", "repairs", "viol_rate", "penalties", "net_revenue"],
        rows,
    )
    healed, broken = results[True], results[False]
    assert healed["repairs"] > 0
    assert healed["violation_rate"] < broken["violation_rate"] / 2
    assert healed["penalties"] < broken["penalties"]
    assert healed["net_revenue"] > broken["net_revenue"]
    # Timed kernel: one repair cycle.
    testbed = build_testbed()
    from repro.transport.paths import PathRequest

    testbed.transport.reserve_path(
        "bench",
        "00199",
        PathRequest("enb1-agg", "edge-dc-gw", min_bandwidth_mbps=20.0, max_delay_ms=10.0),
    )

    def flap_and_repair():
        testbed.transport.topology.link("enb1-mmwave-fwd").fail()
        testbed.transport.repair_path("bench")
        testbed.transport.topology.link("enb1-mmwave-fwd").restore()
        testbed.transport.topology.link("enb1-uwave-fwd").fail()
        testbed.transport.repair_path("bench")
        testbed.transport.topology.link("enb1-uwave-fwd").restore()

    benchmark(flap_and_repair)
