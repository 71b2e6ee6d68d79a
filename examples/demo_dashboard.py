#!/usr/bin/env python
"""The full SIGCOMM'18 demo session, replayed in simulation.

Heterogeneous tenants submit slice requests through the REST API (as the
demo dashboard does), the orchestrator admits for revenue, overbooks via
traffic forecasts, rejected requests show up in the dashboard, and the
gains-vs-penalties headline updates as slices run.

Run:  python examples/demo_dashboard.py
"""

from __future__ import annotations

from repro.api import build_orchestrator_api
from repro.core.admission import GreedyPricePolicy
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.overbooking import AdaptiveOverbooking
from repro.dashboard.dashboard import Dashboard
from repro.experiments.testbed import build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

#: The requests "typed into" the dashboard: (tenant, service type,
#: throughput Mb/s, latency ms, duration s, price, penalty rate).
DEMO_REQUESTS = [
    ("streamco", "embb", 22.0, 60.0, 4 * 3_600.0, 90.0, 0.4),
    ("acme-automotive", "automotive", 12.0, 20.0, 3 * 3_600.0, 110.0, 0.9),
    ("mediclinic", "ehealth", 8.0, 30.0, 6 * 3_600.0, 190.0, 1.2),
    ("sensornet", "mmtc", 3.0, 300.0, 8 * 3_600.0, 12.0, 0.1),
    ("railops", "urllc", 5.0, 8.0, 2 * 3_600.0, 240.0, 2.0),
    ("streamco", "embb", 20.0, 80.0, 4 * 3_600.0, 80.0, 0.4),
    ("acme-automotive", "automotive", 15.0, 25.0, 3 * 3_600.0, 130.0, 0.9),
    ("streamco", "embb", 24.0, 70.0, 5 * 3_600.0, 120.0, 0.4),
    ("mediclinic", "ehealth", 10.0, 40.0, 4 * 3_600.0, 160.0, 1.2),
    ("sensornet", "mmtc", 4.0, 400.0, 8 * 3_600.0, 16.0, 0.1),
    ("railops", "urllc", 6.0, 9.0, 3 * 3_600.0, 300.0, 2.0),
    ("streamco", "embb", 18.0, 90.0, 4 * 3_600.0, 75.0, 0.4),
]


def main() -> None:
    testbed = build_testbed()
    sim = Simulator()
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        admission=GreedyPricePolicy(),
        overbooking=AdaptiveOverbooking(violation_budget=0.05, initial_quantile=0.9),
        config=OrchestratorConfig(
            monitoring_epoch_s=60.0,
            reconfig_every_epochs=5,
            min_history_for_forecast=10,
        ),
        streams=RandomStreams(seed=2018),
    )
    orchestrator.start()
    api = build_orchestrator_api(orchestrator)
    dashboard = Dashboard(orchestrator)

    # Submit one request every 10 simulated minutes, like a live demo —
    # through the versioned northbound API, with tenancy in the header.
    print("=== submitting slice requests through the v1 REST API ===")
    for i, (tenant, stype, mbps, latency, duration, price, penalty) in enumerate(
        DEMO_REQUESTS
    ):
        sim.run_until(i * 600.0)
        response = api.post(
            "/v1/slices",
            body={
                "service_type": stype,
                "throughput_mbps": mbps,
                "max_latency_ms": latency,
                "duration_s": duration,
                "price": price,
                "penalty_rate": penalty,
            },
            headers={"X-Tenant-Id": tenant},
        )
        verdict = "ACCEPTED" if response.status == 201 else "REJECTED"
        reason = "" if response.ok else f"  ({response.body['error']['message'][:60]})"
        print(
            f"t={sim.now:6.0f}s  {tenant:16s} {stype:10s} "
            f"{mbps:5.1f} Mb/s  ≤{latency:5.1f} ms  -> {verdict}{reason}"
        )

    # Run the rest of the day; print the dashboard at checkpoints.
    for checkpoint in (4 * 3_600.0, 8 * 3_600.0):
        sim.run_until(checkpoint)
        print(f"\n{'=' * 72}\n=== dashboard at t = {checkpoint / 3600:.0f} h ===\n")
        print(dashboard.headline())
    print(f"\n{'=' * 72}\n=== final dashboard ===\n")
    print(dashboard.render())
    q = orchestrator.overbooking.quantile
    print(f"\nadaptive controller settled at forecast quantile q = {q:.3f}")


if __name__ == "__main__":
    main()
