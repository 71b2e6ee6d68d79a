#!/usr/bin/env python
"""The full slice-broker workflow: batch windows, advance bookings,
city-scale traffic traces.

This example combines the three broker-grade features on top of the
plain demo flow:

1. walk-in requests arrive through the versioned northbound API
   (``POST /v1/slices?mode=batch`` → 202 + operation id) and are decided
   in 5-minute *batch windows* by the revenue-maximizing knapsack
   (ref [3]'s broker model); tenants poll ``GET /v1/operations/{op_id}``
   for the verdict,
2. a stadium operator books a large eMBB slice *in advance* for the
   evening event — the calendar protects that capacity from walk-ins,
3. the stadium's traffic follows a synthetic Milan-grid-like city trace
   (residential land use), which the forecaster learns and the
   overbooking engine exploits.

Run:  python examples/slice_broker.py
"""

from __future__ import annotations

from repro.api import build_orchestrator_api
from repro.core.admission import KnapsackPolicy
from repro.core.broker import SliceBroker
from repro.core.forecasting import HoltWintersForecaster
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.overbooking import ForecastOverbooking
from repro.core.slices import SLA, ServiceType, SliceRequest
from repro.dashboard.dashboard import Dashboard
from repro.experiments.testbed import build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.traces import SyntheticCityTrace

HOUR = 3_600.0


def main() -> None:
    testbed = build_testbed()
    sim = Simulator()
    streams = RandomStreams(seed=77)
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        overbooking=ForecastOverbooking(quantile=0.95),
        forecaster_factory=lambda: HoltWintersForecaster(season_length=24),
        config=OrchestratorConfig(
            monitoring_epoch_s=300.0,
            reconfig_every_epochs=4,
            min_history_for_forecast=12,
        ),
        streams=streams,
    )
    orchestrator.start()
    broker = SliceBroker(orchestrator, window_s=300.0, policy=KnapsackPolicy())
    api = build_orchestrator_api(orchestrator, broker=broker)

    # --- 1. the stadium books tonight's event slice in advance ---------
    stadium = SliceRequest(
        tenant_id="stadium-events",
        service_type=ServiceType.EMBB,
        sla=SLA(throughput_mbps=35.0, max_latency_ms=60.0, duration_s=4 * HOUR),
        price=600.0,
        penalty_rate=3.0,
    )
    stadium_profile = SyntheticCityTrace("residential", noise_sigma=0.1).profile(
        35.0, n_days=1, rng=streams.stream("stadium-trace")
    )
    decision = orchestrator.submit_advance(
        stadium, stadium_profile, start_time=18.0 * HOUR
    )
    print(f"advance booking for t=18h: {decision.reason} (admitted={decision.admitted})\n")

    # --- 2. walk-ins all day, batched through the northbound API --------
    walk_ins = [
        # (hour, tenant, mbps, latency, hours, price)
        (8.0, "officenet", 20.0, 80.0, 9.0, 140.0),
        (8.2, "roadwatch", 10.0, 25.0, 10.0, 170.0),
        (8.4, "cheapcast", 30.0, 90.0, 12.0, 60.0),
        (9.0, "mediclinic", 8.0, 30.0, 10.0, 180.0),
        (12.0, "lunchstream", 15.0, 70.0, 3.0, 45.0),
        (17.5, "eveningtv", 30.0, 90.0, 5.0, 110.0),
    ]
    operations: list = []
    for hour, tenant, mbps, latency, hours, price in walk_ins:
        def submit(tenant=tenant, mbps=mbps, latency=latency, hours=hours, price=price):
            response = api.post(
                "/v1/slices?mode=batch",
                body={
                    "service_type": "embb",
                    "throughput_mbps": mbps,
                    "max_latency_ms": latency,
                    "duration_s": hours * HOUR,
                    "price": price,
                    "penalty_rate": 0.5,
                },
                headers={"X-Tenant-Id": tenant},
            )
            assert response.status == 202, response.body
            operations.append((tenant, response.body["operation_id"]))

        sim.schedule_at(hour * HOUR, submit)

    # --- 3. run the day --------------------------------------------------
    sim.run_until(23.0 * HOUR)

    print("=== batch operations (GET /v1/operations/{op_id}) ===")
    for tenant, op_id in operations:
        op = api.get(f"/v1/operations/{op_id}", headers={"X-Tenant-Id": tenant}).body
        decision = op["decision"] or {}
        print(
            f"  {op_id} {tenant:12s} {op['status']:9s} "
            f"({(decision.get('reason') or 'pending')[:60]})"
        )
    stadium_slice = orchestrator.slice(stadium.request_id.replace("req-", "slice-"))
    print(
        f"\nstadium slice state at 23h: {stadium_slice.state.value} "
        f"(violations {stadium_slice.violation_epochs}/{stadium_slice.served_epochs})"
    )
    print(f"windows flushed: {broker.windows_flushed}\n")
    print(Dashboard(orchestrator).render())


if __name__ == "__main__":
    main()
