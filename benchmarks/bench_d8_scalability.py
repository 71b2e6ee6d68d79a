"""D8 — Orchestrator scalability.

A demo paper shows a 2-cell testbed; a broker product must scale.  We
sweep the testbed size (cells, DC nodes, PLMN pool) and measure
simulated-hours-per-wallclock-second plus the per-request decision
cost, at constant per-cell offered load.  A second experiment measures
the *fleet-scale install engine*: a burst of admitted slices deployed
through the concurrent :class:`~repro.drivers.planner.BatchInstallPlanner`
versus the sequential seed path, over southbound drivers with realistic
per-call latency.

Expected shape: decision latency grows roughly linearly in topology
size (CSPF dominates); the event engine sustains thousands of events
per second regardless; the batched install of a burst is bounded by
the slowest pipeline stage, not the sum of every domain's latency, so
it beats the sequential path by well over 2× at 32 slices.  The
southbound latency passes on the driver registry's virtual clock, so
both deployment times (D8b) are exact: the same figures on every run
and every host.

A third experiment (D8c) turns the control-plane observability
subsystem on over the same burst: it publishes the per-stage latency
breakdown (admission / placement / prepare / commit / journal) that
falls out of the tracing spans, and measures what the instrumentation
itself costs against the disabled no-op path.

A fourth experiment (D8d) measures *stall isolation*: one southbound
operation hangs mid-batch (``MockDriver.stall()``).  The event-driven
engine times the hung job out at its per-operation deadline, unwinds it
cleanly, and the healthy jobs commit in their own latency — the batch
settles before the backend comes back, which no engine that parks a
thread per job can do.  The release is an event on the same clock, so
the settling instant is exact too.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager

from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.slices import PlmnPool
from repro.drivers.base import DomainSpec
from repro.drivers.mock import MockDriver
from repro.drivers.planner import BatchInstallPlanner, InstallJob
from repro.drivers.registry import DriverRegistry
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.scenarios import ArrivalSpec, ScenarioRunner, ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request

from benchmarks.conftest import emit_table

#: Testbed sizes swept by D8 (eNB counts).  Env-scalable: the default
#: keeps the historical curve; ``D8_SCALES=2,4,8,16,64,128,256`` pushes
#: to fleet scale (the larger points take minutes at the full 1 h
#: horizon — shrink ``D8_HORIZON_S`` alongside).
SCALES = tuple(
    int(token)
    for token in os.environ.get("D8_SCALES", "2,4,8,16").split(",")
    if token.strip()
)

#: Simulated horizon of each sweep point.
HORIZON_S = float(os.environ.get("D8_HORIZON_S", "3600"))

#: Burst size of the batched-install experiment (CI smoke shrinks it).
BATCH_SLICES = int(os.environ.get("D8_BATCH_SLICES", "32"))

#: Repeats of the instrumentation-overhead comparison (min-of-N).
OBS_REPEATS = int(os.environ.get("D8_OBS_REPEATS", "3"))

#: Pipeline stages reported in the per-stage latency breakdown.
OBS_STAGES = (
    "install.batch",
    "install.job",
    "admission",
    "placement",
    "driver.prepare",
    "driver.commit",
    "journal",
    "event",
)

#: Southbound latency emulated per driver call, in seconds of the
#: registry's clock (a real controller's RPC + configuration time; the
#: simulator's in-process calls are otherwise ~free, which would hide
#: exactly the cost batching removes).
PREPARE_LATENCY_S = 0.002
COMMIT_LATENCY_S = 0.0005


def run_scale(n_enbs: int, seed: int = 5, horizon_s: float = HORIZON_S):
    spec = ScenarioSpec(
        name="d8",
        seed=seed,
        horizon_s=horizon_s,
        n_enbs=n_enbs,
        arrivals=ArrivalSpec(rate_per_s=n_enbs / 120.0),  # constant per-cell load
        testbed={
            "plmn_pool_size": 6 * n_enbs,
            "core_nodes": 2 * n_enbs,
            "edge_nodes": n_enbs,
        },
    )
    runner = ScenarioRunner(spec)
    start = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


#: A sweep point must measure at least this many requests before its
#: ms-per-request figure counts — at small scales a short horizon can
#: land as few as *one* Poisson arrival, and a flatness ratio computed
#: from a single request is noise, not a measurement.
MIN_POINT_REQUESTS = int(os.environ.get("D8_MIN_POINT_REQUESTS", "8"))

#: Cap on how many seeds a point may accumulate chasing the minimum.
MAX_POINT_RUNS = int(os.environ.get("D8_MAX_POINT_RUNS", "8"))


def run_scale_measured(
    n_enbs: int,
    horizon_s: float = HORIZON_S,
    min_requests: int = MIN_POINT_REQUESTS,
    max_runs: int = MAX_POINT_RUNS,
    base_seed: int = 5,
) -> dict:
    """One statistically defensible sweep point: repeat :func:`run_scale`
    over consecutive seeds until the point has measured at least
    ``min_requests`` cumulative requests (capped at ``max_runs``), and
    report the **median** per-run ms-per-request as the point cost —
    the median is robust to the one run that caught a GC pause or a
    noisy-neighbour spike, where a single-run mean is not.

    Returns ``{"enbs", "requests", "admitted", "runs", "wall_s",
    "ms_per_request", "per_run_ms", "sampled"}``.  ``sampled`` is False
    when even ``max_runs`` accumulated seeds could not reach the
    request floor (e.g. a smoke run with a tiny horizon): the median is
    then tagged as noise so downstream gates can exclude it instead of
    reading a 1-request "median" as a measurement.
    """
    per_run_ms = []
    requests = admitted = 0
    wall = 0.0
    runs = 0
    for offset in range(max(1, max_runs)):
        result, elapsed = run_scale(
            n_enbs, seed=base_seed + offset, horizon_s=horizon_s
        )
        runs += 1
        wall += elapsed
        requests += result.submitted
        admitted += result.admitted
        if result.submitted > 0:
            per_run_ms.append(1_000.0 * elapsed / result.submitted)
        if requests >= min_requests:
            break
    per_run_ms.sort()
    if per_run_ms:
        mid = len(per_run_ms) // 2
        if len(per_run_ms) % 2:
            median_ms = per_run_ms[mid]
        else:
            median_ms = (per_run_ms[mid - 1] + per_run_ms[mid]) / 2.0
    else:
        median_ms = 1_000.0 * wall  # no arrivals at all — report wall
    return {
        "enbs": n_enbs,
        "requests": requests,
        "admitted": admitted,
        "runs": runs,
        "wall_s": wall,
        "ms_per_request": median_ms,
        "per_run_ms": per_run_ms,
        "sampled": requests >= min_requests,
    }


#: Requests driven per shard by the sharded-mode measurement (D8e).
SHARDED_REQUESTS = int(os.environ.get("D8_SHARDED_REQUESTS", "16"))


def run_sharded_point(
    shards: int, n_enbs_per_shard: int, requests_per_shard: int = SHARDED_REQUESTS
) -> dict:
    """Per-shard control-plane cost in sharded mode: drive synchronous
    slice creates through the :class:`~repro.cluster.router.ShardRouter`
    (tenant-affine path — admission + placement + install + the router
    hop) and time each shard's batch separately.  Memory-only cluster:
    the point measures decision cost, not journal fsyncs.

    Returns ``{shard_id: {"requests", "admitted", "wall_s",
    "ms_per_request"}}``.
    """
    from repro.cluster import ClusterConfig, ControlPlaneCluster

    cluster = ControlPlaneCluster(
        ClusterConfig(
            shards=shards,
            n_enbs_per_shard=n_enbs_per_shard,
            max_plmns_per_enb=12,
            plmn_pool_size=6 * n_enbs_per_shard,
        )
    )
    # One tenant per shard, deterministic (the ring is seedless).
    owners: dict = {}
    for i in range(1024):
        owners.setdefault(cluster.ring.shard_for(f"tenant-{i}"), f"tenant-{i}")
        if len(owners) == shards:
            break
    points = {}
    for shard_id in sorted(owners):
        tenant = owners[shard_id]
        body = {
            "service_type": "embb",
            "throughput_mbps": 2.0,
            "max_latency_ms": 50.0,
            "duration_s": 3_600.0,
            "price": 100.0,
            "penalty_rate": 1.0,
            "tenant_id": tenant,
        }
        headers = {"x-tenant-id": tenant}
        admitted = 0
        start = time.perf_counter()
        for _ in range(requests_per_shard):
            response = cluster.router.post("/v1/slices", body=body, headers=headers)
            admitted += response.status == 201
        wall = time.perf_counter() - start
        points[shard_id] = {
            "requests": requests_per_shard,
            "admitted": admitted,
            "wall_s": round(wall, 4),
            "ms_per_request": round(1_000.0 * wall / max(1, requests_per_shard), 4),
        }
    cluster.close()
    return points


#: Live-slice sweep points: sync create cost with this many slices
#: already live on the shard (the calendar, flow table, journal and
#: slice registry all grow with them; the testbed does not).
LIVE_SLICE_POINTS = (200, 1_600)
#: Creates timed per point (after ``LIVE_SLICE_WARMUP`` untimed ones).
LIVE_SLICE_SAMPLES = 48
LIVE_SLICE_WARMUP = 8


@contextmanager
def live_slice_shard(live_slices: int, room: int = max(LIVE_SLICE_POINTS)):
    """One *durable* shard behind the router, preloaded with
    ``live_slices`` active slices on a testbed sized for ``room`` of
    them plus the timed creates — every point of a sweep runs on the
    same testbed, so only the number of live slices differs.  Yields ``create()``,
    one synchronous ``POST /v1/slices`` returning its status."""
    from repro.cluster import ClusterConfig, ControlPlaneCluster

    cells = (room + LIVE_SLICE_SAMPLES + LIVE_SLICE_WARMUP) // 10 + 4
    pool = 16 * cells
    root = tempfile.mkdtemp(prefix="d8-live-")
    cluster = ControlPlaneCluster(
        ClusterConfig(shards=1, durability_root=root, plmn_pool_size=pool),
        testbeds=[
            build_testbed(
                TestbedConfig(
                    n_enbs=cells, max_plmns_per_enb=16, plmn_pool_size=pool,
                    edge_nodes=cells, core_nodes=2 * cells,
                )
            )
        ],
    )
    body = {
        "service_type": "embb", "throughput_mbps": 2.0, "max_latency_ms": 50.0,
        "duration_s": 36_000.0, "price": 100.0, "penalty_rate": 1.0,
        "tenant_id": "tenant-0",
    }
    headers = {"x-tenant-id": "tenant-0"}

    def create() -> int:
        return cluster.router.post("/v1/slices", body=body, headers=headers).status

    try:
        refused = sum(create() != 201 for _ in range(live_slices))
        if refused:
            raise RuntimeError(f"preload refused {refused}/{live_slices} creates")
        worker = cluster.shards[0]
        worker.run_until(worker.sim.now + 5.0)  # installs activate
        yield create
    finally:
        cluster.close()
        shutil.rmtree(root, ignore_errors=True)


def run_live_slice_point(live_slices: int, samples: int = LIVE_SLICE_SAMPLES) -> dict:
    """Sync create cost at ``live_slices`` live slices: the **median**
    of ``samples`` individually timed creates (robust to the one that
    caught a GC pause, as in :func:`run_scale_measured`), after an
    untimed warm-up.

    Returns ``{"live_slices", "requests", "admitted", "ms_per_request"}``.
    """
    with live_slice_shard(live_slices) as create:
        for _ in range(LIVE_SLICE_WARMUP):
            create()
        per_create_ms = []
        admitted = 0
        for _ in range(samples):
            start = time.perf_counter()
            status = create()
            per_create_ms.append(1_000.0 * (time.perf_counter() - start))
            admitted += status == 201
    return {
        "live_slices": live_slices,
        "requests": samples,
        "admitted": admitted,
        "ms_per_request": statistics.median(per_create_ms),
    }


def test_d8f_live_slice_sweep(benchmark):
    """D8f — sync create cost does not grow with the slices already
    live on the shard (D8 grows cells; this grows what the calendar,
    the flow tables, the journal and the registry hold)."""
    points = [run_live_slice_point(live) for live in LIVE_SLICE_POINTS]
    emit_table(
        "D8f",
        f"sync create cost vs live slices (one durable shard, median of "
        f"{LIVE_SLICE_SAMPLES} creates)",
        ["live_slices", "requests", "admitted", "ms_per_request"],
        [[p["live_slices"], p["requests"], p["admitted"], p["ms_per_request"]] for p in points],
    )
    for point in points:
        assert point["admitted"] == point["requests"], point
    # 8x the live slices costs well under 8x per create.
    assert points[-1]["ms_per_request"] < 3.0 * points[0]["ms_per_request"]
    benchmark.pedantic(
        lambda: run_live_slice_point(LIVE_SLICE_POINTS[0]), rounds=1, iterations=1
    )


def test_d8e_sharded_per_request_cost(benchmark):
    """D8e — the sharded router path keeps per-request cost in the same
    regime as a single control plane (the router hop + merge layer must
    not dominate admission + install)."""
    points = run_sharded_point(shards=2, n_enbs_per_shard=4)
    emit_table(
        "D8e",
        f"sharded-mode per-request cost (2 shards, 4 eNBs each, "
        f"{SHARDED_REQUESTS} requests per shard)",
        ["shard", "requests", "admitted", "wall_s", "ms_per_request"],
        [
            [k, p["requests"], p["admitted"], p["wall_s"], p["ms_per_request"]]
            for k, p in sorted(points.items())
        ],
    )
    for shard_id, point in points.items():
        assert point["admitted"] == point["requests"], (
            f"shard {shard_id}: {point['admitted']}/{point['requests']} admitted"
        )
    benchmark.pedantic(
        lambda: run_sharded_point(shards=2, n_enbs_per_shard=4),
        rounds=1,
        iterations=1,
    )


def test_d8_scale_sweep(benchmark):
    rows = []
    per_request_cost = {}
    for n_enbs in SCALES:
        point = run_scale_measured(n_enbs)
        per_request_cost[n_enbs] = point["ms_per_request"]
        rows.append(
            [
                n_enbs,
                point["requests"],
                point["admitted"],
                point["runs"],
                point["wall_s"],
                point["ms_per_request"],
            ]
        )
        # The flatness claim below is only meaningful when every point
        # actually measured a real batch of requests.
        assert point["requests"] >= MIN_POINT_REQUESTS, (
            f"{n_enbs} eNBs: only {point['requests']} requests across "
            f"{point['runs']} runs (need >= {MIN_POINT_REQUESTS})"
        )
    emit_table(
        "D8",
        f"orchestrator scalability ({HORIZON_S / 3600.0:g} h horizon, "
        "constant per-cell load, median-of-runs cost)",
        ["enbs", "requests", "admitted", "runs", "wall_s", "ms_per_request"],
        rows,
    )
    # Sub-quadratic growth: k× the cells costs well under k²× per request.
    smallest, largest = min(SCALES), max(SCALES)
    ratio = largest / smallest
    assert per_request_cost[largest] < per_request_cost[smallest] * ratio**2
    # Timed kernel: the smallest scenario end-to-end.
    benchmark.pedantic(lambda: run_scale(2, seed=9), rounds=1, iterations=1)


def _latency_orchestrator(observability: bool = False) -> Orchestrator:
    """An orchestrator whose four southbound domains are thread-safe
    mock backends with per-call latency — placement planning still uses
    the real testbed, but install time is dominated by the (emulated)
    southbound RPCs, exactly like a physical deployment."""
    n_enbs = max(2, -(-BATCH_SLICES // 4))  # ~4 slices of 10 Mb/s per cell
    testbed = build_testbed(
        TestbedConfig(
            n_enbs=n_enbs,
            max_plmns_per_enb=6,
            plmn_pool_size=6 * n_enbs,
            edge_nodes=n_enbs,
            core_nodes=2 * n_enbs,
        )
    )
    registry = DriverRegistry(
        [
            MockDriver(
                domain=domain,
                capacity_mbps=1e9,
                max_concurrent_installs=8,
                prepare_latency_s=PREPARE_LATENCY_S,
                commit_latency_s=COMMIT_LATENCY_S,
                prepare_after=("cloud",) if domain == "epc" else (),
            )
            for domain in ("ran", "transport", "cloud", "epc")
        ]
    )
    return Orchestrator(
        sim=Simulator(),
        allocator=testbed.allocator,
        plmn_pool=PlmnPool(size=2 * BATCH_SLICES + 8),
        registry=registry,
        config=OrchestratorConfig(
            respect_calendar=False, observability=observability
        ),
        streams=RandomStreams(seed=11),
    )


def _install_burst_observed(
    n_slices: int, batched: bool, observability: bool
):
    """Install ``n_slices`` admitted slices; returns ``(wall_s, orch)``
    — the host's wall clock, which the instrumentation costs, and the
    orchestrator, whose registry clock holds the deployment time."""
    orch = _latency_orchestrator(observability=observability)
    admissions = [
        (
            make_request(throughput_mbps=10.0, duration_s=86_400.0),
            ConstantProfile(10.0, level=0.5, noise_std=0.0),
        )
        for _ in range(n_slices)
    ]
    start = time.perf_counter()
    if batched:
        decisions = orch.install_admitted_batch(admissions)
    else:
        decisions = [
            orch.install_admitted(request, profile)
            for request, profile in admissions
        ]
    elapsed = time.perf_counter() - start
    assert all(d.admitted for d in decisions), [
        d.reason for d in decisions if not d.admitted
    ]
    return elapsed, orch


def _install_burst(n_slices: int, batched: bool) -> float:
    """Install ``n_slices`` admitted slices; returns the deployment
    time in seconds of the registry's clock (it starts at 0)."""
    _, orch = _install_burst_observed(n_slices, batched, observability=False)
    return orch.registry.clock.now


def measure_obs_overhead(n_slices: int, repeats: int = OBS_REPEATS):
    """Min-of-N wall clock of the batched burst with observability off
    vs. on; returns ``(off_s, on_s, overhead_fraction, stage_summary)``.

    Min-of-N because the question is intrinsic cost, not scheduler
    noise: the fastest observed run of each mode is the closest to the
    true floor on a shared runner.  One unmeasured warmup pair primes
    caches, and the modes are interleaved so drift (thermal, noisy
    neighbours) hits both equally instead of biasing whichever mode
    ran last.
    """
    _install_burst_observed(n_slices, batched=True, observability=False)
    _install_burst_observed(n_slices, batched=True, observability=True)
    off_runs = []
    on_runs = []
    for _ in range(repeats):
        off_runs.append(
            _install_burst_observed(n_slices, batched=True, observability=False)[0]
        )
        on_runs.append(
            _install_burst_observed(n_slices, batched=True, observability=True)
        )
    off_s = min(off_runs)
    on_s = min(elapsed for elapsed, _ in on_runs)
    _, orch = min(on_runs, key=lambda pair: pair[0])
    overhead = on_s / max(off_s, 1e-9) - 1.0
    return off_s, on_s, overhead, orch.obs.stage_summary(OBS_STAGES)


def test_d8_batched_install_speedup(benchmark):
    """Fleet-scale install: the concurrent batch planner vs. the
    sequential seed path, same burst, same drivers, timed on the
    registry's clock."""
    sequential_s = _install_burst(BATCH_SLICES, batched=False)
    batched_s = _install_burst(BATCH_SLICES, batched=True)
    speedup = sequential_s / max(batched_s, 1e-9)
    emit_table(
        "D8b",
        f"batched vs. sequential install of {BATCH_SLICES} slices "
        f"({PREPARE_LATENCY_S * 1e3:.1f} ms prepare latency per domain)",
        ["mode", "slices", "deploy_s", "slices_per_s", "speedup"],
        [
            ["sequential", BATCH_SLICES, sequential_s, BATCH_SLICES / sequential_s, 1.0],
            ["batched", BATCH_SLICES, batched_s, BATCH_SLICES / batched_s, speedup],
        ],
    )
    # The acceptance bar: >= 2× at the full 32-slice burst.  Tiny
    # bursts (D8_BATCH_SLICES < 16) only assert the batched path does
    # not lose: there is little to overlap.
    if BATCH_SLICES >= 16:
        assert speedup >= 2.0, f"batched install only {speedup:.2f}x faster"
    else:
        assert speedup >= 1.0, f"batched install slower ({speedup:.2f}x)"
    # Timed kernel: a small batched burst end-to-end.
    benchmark.pedantic(
        lambda: _install_burst(min(8, BATCH_SLICES), batched=True),
        rounds=1,
        iterations=1,
    )


# ----------------------------------------------------------------------
# D8c — observability: per-stage breakdown + instrumentation overhead
# ----------------------------------------------------------------------


def test_d8c_stage_breakdown_and_overhead(benchmark):
    """The control-plane observability subsystem measured on the same
    burst D8b times: where a batched install actually spends its time
    (per-stage histograms fed by the tracing spans), and what the
    instrumentation itself costs versus the disabled no-op path."""
    off_s, on_s, overhead, stages = measure_obs_overhead(BATCH_SLICES)
    emit_table(
        "D8c",
        f"instrumentation overhead, {BATCH_SLICES}-slice batched burst "
        f"(min of {OBS_REPEATS})",
        ["mode", "wall_s", "overhead"],
        [
            ["observability off (no-op)", off_s, 0.0],
            ["observability on", on_s, overhead],
        ],
    )
    emit_table(
        "D8c-stages",
        f"per-stage latency breakdown, {BATCH_SLICES}-slice batched burst",
        ["stage", "count", "p50_ms", "p95_ms", "p99_ms", "max_ms"],
        [
            [
                name,
                stats["count"],
                stats["p50_ms"],
                stats["p95_ms"],
                stats["p99_ms"],
                stats["max_ms"],
            ]
            for name, stats in stages.items()
        ],
    )
    # Every pipeline stage must actually be covered by the tracing.
    for stage in ("admission", "placement", "driver.prepare", "driver.commit"):
        assert stage in stages, f"stage {stage!r} produced no observations"
    # Loose sanity bar; the strict <=5% gate runs in benchmarks/ci_gate.py
    # over min-of-N on the quieter CI path.
    assert overhead < 0.5, f"observability overhead {overhead:.1%}"
    # Timed kernel: a small observed burst end-to-end.
    benchmark.pedantic(
        lambda: _install_burst_observed(
            min(8, BATCH_SLICES), batched=True, observability=True
        ),
        rounds=1,
        iterations=1,
    )


# ----------------------------------------------------------------------
# D8d — stall isolation of the async engine
# ----------------------------------------------------------------------

#: Jobs in the stalled batch (CI smoke can shrink it).
STALL_JOBS = int(os.environ.get("D8_STALL_JOBS", "16"))
#: The hung backend comes back after this long (an event on the
#: registry's clock).  Also the baseline of the reported isolation
#: ratio: an engine that parks one thread per job on a blocking call by
#: construction waits the stall out.
STALL_RELEASE_S = 0.5
#: Per-operation deadline the async engine applies.
STALL_TIMEOUT_S = 0.15


def _stall_registry() -> DriverRegistry:
    return DriverRegistry(
        [
            MockDriver(
                domain=domain,
                capacity_mbps=1e9,
                max_concurrent_installs=8,
                prepare_latency_s=PREPARE_LATENCY_S,
                commit_latency_s=COMMIT_LATENCY_S,
                prepare_after=("cloud",) if domain == "epc" else (),
            )
            for domain in ("ran", "transport", "cloud", "epc")
        ]
    )


def _stalled_batch():
    """Install a ``STALL_JOBS``-job batch with one hung transport
    operation (released ``STALL_RELEASE_S`` in); returns ``(settled_s,
    jobs_ok, ops_timed_out)``, ``settled_s`` on the registry's clock."""
    registry = _stall_registry()
    hung = registry.get("transport")
    hung.stall()
    releaser = registry.clock.schedule(STALL_RELEASE_S, hung.release_stall)
    planner = BatchInstallPlanner(
        registry,
        max_workers=8,
        batch_size=STALL_JOBS,
        operation_timeout_s=STALL_TIMEOUT_S,
    )
    jobs = [
        InstallJob(
            slice_id=f"stall-{i}",
            attempts=[
                {
                    domain: DomainSpec(slice_id=f"stall-{i}", throughput_mbps=10.0)
                    for domain in registry.domains()
                }
            ],
        )
        for i in range(STALL_JOBS)
    ]
    outcomes = planner.install(jobs)
    settled_s = registry.clock.now
    releaser.cancel()
    hung.release_stall()
    return settled_s, sum(o.ok for o in outcomes), planner.ops_timed_out


def test_d8d_stall_isolation(benchmark):
    """One hung southbound op in an N-job batch: the async engine
    settles at its deadline with every healthy job committed, before
    the backend comes back."""
    async_s, async_ok, async_timeouts = _stalled_batch()
    emit_table(
        "D8d",
        f"stall isolation: {STALL_JOBS}-job batch, one transport op hung "
        f"{STALL_RELEASE_S * 1e3:.0f} ms, {STALL_TIMEOUT_S * 1e3:.0f} ms deadline",
        ["engine", "jobs_ok", "ops_timed_out", "settled_s", "isolation"],
        [
            ["thread per job (the stall)", STALL_JOBS, 0, STALL_RELEASE_S, 1.0],
            ["async", async_ok, async_timeouts, async_s,
             STALL_RELEASE_S / max(async_s, 1e-9)],
        ],
    )
    # Exactly the job that hit the stall timed out and unwound; every
    # healthy job committed, and the batch settled before the backend
    # came back.
    assert async_ok >= STALL_JOBS - 1
    assert async_timeouts >= 1
    assert async_s == STALL_TIMEOUT_S, (
        f"async engine settled at {async_s:.3f}s, not at its deadline"
    )
    # Timed kernel: the async engine under the stall, end-to-end.
    benchmark.pedantic(_stalled_batch, rounds=1, iterations=1)
