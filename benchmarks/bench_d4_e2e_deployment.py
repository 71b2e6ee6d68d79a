"""D4 — End-to-end slice installation across all three domains.

Demo claim: slices are installed end-to-end and "after few seconds,
user devices associated with the PLMN-id of the new slices are allowed
to connect"; rejected requests are shown in the dashboard.  We measure
(i) the orchestrator's decision+allocation wall-clock per request,
(ii) acceptance ratio vs. offered load, and (iii) the UE attach latency
on the installed slice.

Expected shape: acceptance decreases monotonically with offered load;
decision latency stays in the millisecond range (the real demo's
"few seconds" is dominated by VM boot, which simulation collapses);
attach latency ≈ RRC + 5 transport traversals + EPC processing.  The
batched-deployment variant (D4c) shows the fleet-scale install engine
collapsing a burst's total deployment time: per-slice latency of a
batched burst undercuts the sequential seed path by well over 2× once
southbound calls cost time (on the driver registry's virtual clock).
"""

from __future__ import annotations

import numpy as np

from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.experiments.testbed import build_testbed
from repro.scenarios import ArrivalSpec, ScenarioSpec, run_scenario
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request

from benchmarks.conftest import emit_table

#: Mean inter-arrival times (s) swept for the acceptance curve.
INTERARRIVALS = (300.0, 120.0, 60.0, 30.0, 15.0)


def test_d4_acceptance_vs_load(benchmark):
    rows = []
    ratios = []
    for interarrival in INTERARRIVALS:
        result = run_scenario(
            ScenarioSpec(
                name="d4a",
                seed=6,
                horizon_s=2 * 3_600.0,
                n_enbs=2,
                arrivals=ArrivalSpec(rate_per_s=1.0 / interarrival),
            )
        )
        ratios.append(result.admission_yield)
        rows.append(
            [
                interarrival,
                result.submitted,
                result.admitted,
                result.admission_yield,
                result.gross_revenue,
                result.final_active_slices,
                result.digest[:12],
            ]
        )
    emit_table(
        "D4a",
        "acceptance ratio vs. offered load (2 h, no overbooking)",
        ["interarrival_s", "requests", "admitted", "acceptance", "gross", "active_at_end", "digest"],
        rows,
    )
    # Acceptance falls (weakly) as load rises.
    assert all(b <= a + 0.1 for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] > ratios[-1]
    # Timed kernel: one submit() decision incl. end-to-end allocation.
    testbed = build_testbed()
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=0),
    )
    orch.start()

    def submit_and_release():
        request = make_request(throughput_mbps=10.0)
        decision = orch.submit(
            request, ConstantProfile(10.0, level=0.5, noise_std=0.0)
        )
        assert decision.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        orch._expire_immediately_for_benchmark(slice_id)

    # Expose a tiny helper for the kernel without polluting the public API.
    def _expire(slice_id):
        runtime = orch.fleet.runtimes.pop(slice_id, None)
        if runtime is None:
            return
        # Release through the driver registry, not the raw allocator —
        # otherwise every timed iteration leaks a reservation record
        # (and a running EpcInstance) inside the drivers.
        orch.releases.release(slice_id)
        orch.plmn_pool.release(slice_id)
        request_id = runtime.network_slice.request.request_id
        if orch.calendar.has(request_id):
            orch.calendar.release(request_id)

    orch._expire_immediately_for_benchmark = _expire
    benchmark(submit_and_release)


def test_d4_attach_latency(benchmark):
    """UE attach latency on a freshly installed slice (edge vs. core)."""
    rows = []
    for latency_bound, expected_dc in ((8.0, "edge-dc"), (80.0, "core-dc")):
        testbed = build_testbed()
        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            config=OrchestratorConfig(simulate_ues=True, max_ues_per_slice=8),
            streams=RandomStreams(seed=2),
        )
        orch.start()
        request = make_request(
            throughput_mbps=5.0, max_latency_ms=latency_bound, n_users=8
        )
        decision = orch.submit(
            request, ConstantProfile(5.0, level=0.5, noise_std=0.0)
        )
        assert decision.admitted
        sim.run_until(10.0)
        slice_id = request.request_id.replace("req-", "slice-")
        network_slice = orch.slice(slice_id)
        assert network_slice.allocation.cloud.dc_id == expected_dc
        latencies = [
            ue.attach_latency_s * 1_000.0
            for ue in orch.runtime(slice_id).ues
            if ue.attached
        ]
        rows.append(
            [
                latency_bound,
                network_slice.allocation.cloud.dc_id,
                float(np.mean(latencies)),
                len(latencies),
                network_slice.allocation.total_latency_ms,
            ]
        )
    emit_table(
        "D4b",
        "UE attach latency by hosting datacenter",
        ["sla_latency_ms", "dc", "attach_ms", "ues_attached", "user_plane_ms"],
        rows,
    )
    # Edge attach is faster than core attach (shorter signalling path).
    assert rows[0][2] < rows[1][2]
    # Timed kernel: the attach procedure itself.
    from repro.epc.attach import AttachProcedure

    testbed = build_testbed()
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        config=OrchestratorConfig(simulate_ues=True, max_ues_per_slice=1),
        streams=RandomStreams(seed=3),
    )
    orch.start()
    request = make_request(throughput_mbps=5.0)
    orch.submit(request, ConstantProfile(5.0, level=0.5, noise_std=0.0))
    sim.run_until(10.0)
    slice_id = request.request_id.replace("req-", "slice-")
    runtime = orch.runtime(slice_id)
    enb = testbed.ran.enb(runtime.network_slice.allocation.ran.enb_id)
    procedure = AttachProcedure(
        enb, runtime.epc, runtime.network_slice.allocation.transport.delay_ms
    )
    ue = runtime.ues[0]

    def attach_detach():
        procedure.detach(ue)
        outcome = procedure.attach(ue)
        assert outcome.success

    benchmark(attach_detach)


def test_d4_batched_deployment_latency(benchmark):
    """D4c — per-slice deployment time of an admission burst,
    sequential seed path vs. the concurrent batch install planner, over
    southbound drivers with emulated per-call latency."""
    from benchmarks.bench_d8_scalability import _install_burst

    burst = 8
    rows = []
    per_slice_ms = {}
    for mode, batched in (("sequential", False), ("batched", True)):
        elapsed = _install_burst(burst, batched=batched)
        per_slice_ms[mode] = 1_000.0 * elapsed / burst
        rows.append([mode, burst, elapsed, per_slice_ms[mode]])
    emit_table(
        "D4c",
        f"per-slice deployment latency, burst of {burst} (2 ms southbound prepare)",
        ["mode", "slices", "deploy_s", "ms_per_slice"],
        rows,
    )
    # The hard >=2x acceptance bar lives in D8b at the full 32-slice
    # burst; at this small burst just require the batched path to win.
    assert per_slice_ms["batched"] < per_slice_ms["sequential"]
    # Timed kernel: one batched burst end-to-end.
    benchmark.pedantic(lambda: _install_burst(burst, batched=True), rounds=1, iterations=1)
