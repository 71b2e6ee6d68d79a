"""CI perf-regression gate over the install-engine benchmarks.

Runs the two install-engine experiments at a CI-friendly scale, writes
the numbers to a JSON artifact (``BENCH_ci.json``) so the performance
trajectory is inspectable per commit, and exits non-zero if a gate is
broken:

- **D8b** — batched vs. sequential install of a slice burst, timed on
  the driver registry's virtual clock: the speedup is exact and must
  equal ``D8B_SPEEDUP``.
- **D8d** — stall isolation: with one southbound operation hung, the
  async engine must commit every healthy job and settle the batch at
  the hung operation's deadline, ``D8D_SETTLED_S`` on the same clock,
  long before the backend comes back; ``isolation`` is the stall length
  over that instant.
- **D12** — crash recovery: snapshot+tail restore must stay ≥ 2×
  faster than full-journal replay at 1k records, and a SIGKILL-style
  recovery smoke (churn → crash → fresh control plane → reconcile)
  must come back with zero lost slices and zero leaked reservations;
  the measured recovery time is published in the artifact.
- **D8 sweep** (soft gate) — the per-request decision cost across
  testbed scales is recorded so the scaling curve is inspectable per
  commit.  Two bands: past ``D8_FLATNESS_RATIO`` the gate warns
  (shared runners are noisy), past the explicit
  ``D8_FLATNESS_GATE_RATIO`` tolerance it *fails* — a curve that
  doubles the warn bar is a regression, not jitter.  The same check
  runs in **sharded mode** (2 shards behind the router, per-shard
  ``ms_per_request`` published), and over a **live-slice sweep**
  (sync create ms at 200 vs 1 600 live slices on one durable shard).
- **Failover drill** — SIGKILL a shard leader mid-16-job-batch; the
  warm standby must promote with zero lost and zero leaked
  reservations, and the measured ``recovery_s`` lands in the artifact.
  The promotion must also consume at most two journal records and two
  fsyncs (``promotion_journal_records <= 2``, ``promotion_fsyncs <=
  2``): adoption is in-memory and one ``recovery.rebased`` record states
  it, ``recovery.completed`` closes it, both under the group commit, and
  the fsyncs are the lease file and its directory.  It must draw no
  traffic profile and decode no snapshot
  (``promotion_profiles_derived == promotion_snapshot_parses == 0``):
  adopted profiles wait for their first epoch, and the reopened store
  reads the snapshot LSN off the file's head.  It must build at most one
  vEPC template and never serialise the fleet
  (``promotion_template_builds <= 1``,
  ``promotion_fleet_serialisations == 0``): the bulk adoption sizes the
  vEPC once, and no checkpoint closes a recovery.  Inside the
  reconciliation the adoption is one batch pass: it must scan the cells
  at most once and commit the calendar at most once
  (``promotion_cell_scans <= 1``, ``promotion_calendar_commits <= 1``),
  and format no PLMN identity and take no legality-checked transition
  (``promotion_plmn_formats == promotion_checked_transitions == 0``).
  The promoted shard's first epoch must construct no
  ``numpy.random.SeedSequence`` (``first_epoch_seed_sequences == 0``):
  every id-keyed draw is a counter.  Seven counts are exact.  The
  standby that re-arms the promoted shard is armed from the serving
  leader: building it decodes no request and its first poll folds
  nothing and decodes no snapshot (``successor_requests_decoded ==
  successor_first_poll_records == successor_snapshot_parses == 0``).
  The first epoch draws every adopted profile in one batch
  (``first_epoch_profiles_drawn == slices_adopted``,
  ``first_epoch_profile_batches == 1``).  The promotion decodes only the
  requests of its lag, the drill's 16-job batch
  (``promotion_requests_decoded == 16``): the warm standby keeps each
  live and in-flight request decoded as it folds it.  The new leader
  serves first: the adoption keeps the deposed plane, stopped, and
  frees none inside the outage (``deposed_planes_freed_in_outage ==
  0``); the successor's ``standby_for`` drops it, and that leaves the
  cyclic collector nothing (``deposed_plane_garbage == 0``,
  ``gc.collect()`` after the adoption and the re-arm with the collector
  disabled across both): no object of a control plane points back at
  its owner, so reference counting frees it where the shard's slot is
  reused.  ``promotion_tracked_objects_per_slice`` is a ceiling
  (``PROMOTION_TRACKED_OBJECTS_PER_SLICE``); ``recovery_split_s``
  (bind / rest) is published, not gated.
- **D13** — the mobility+failure scenario packs (scenario engine) at a
  fixed seed: every scheduled outage must heal inside the horizon and
  the end-of-run audit must show zero lost slices and zero leaked
  reservations; the scenario scores (admission yield, violation rate,
  heal convergence, report digest) are published in the artifact, and
  at the default packs and seed each digest must equal its pin.
- **Epoch upkeep** — counted, not timed: 64 live slices, forecast
  overbooking on, 120 epochs, no outage.  Fails when a forecaster is
  fitted from scratch more than twice per slice (trust time, then the
  second season), when the heal loop polls ``health`` at all with every
  link up, when an epoch that reconfigures nothing looks up more
  links than the distinct paths in use hold, or when an epoch that no
  transition or resize touched compares a single live-slot key
  (``quiet_epoch_slots_checked == 0``: the rows stand across epochs and
  only touched slices are re-checked).  ``epoch_us_per_slice`` is
  published and never judged: a wall-clock figure this small swings
  more between identical runs than any change it could catch, so a
  timing sized to be judged belongs to the end-to-end benchmark.
- **Durable writes** — counted, not timed, on one durable 32-slice
  shard: a second checkpoint of an unchanged fleet must encode no slice
  (``checkpoint_fragments_encoded == 0``) and re-check none
  (``checkpoint_slices_visited == 0``: no folded record named a slice
  since the last checkpoint), one after rescaling 3 slices
  must encode and re-check exactly 3, and a 64-request broker window
  must flush with exactly one journal fsync (``window_journal_fsyncs ==
  1``), before the first requester hears of its decision.
- **Path searches** — counted, not timed: 64 sync creates (every other
  one URLLC, so both gateways are asked for) on an 8-cell testbed, one
  uplink failed and restored half-way.  Fails when ``_dijkstra`` ran more
  often than ``distinct (src, dst) pairs queried x (1 + link-state
  flips)`` — a search per request instead of per link-state change — or
  at all during the last 16 creates.  ``queries``, ``searches``,
  ``memo_share`` and ``us_per_query`` are published and never judged.
- **Driver overhead** — counted, not timed: 64 sync creates, 64
  rescales and 64 deletes on the same 8-cell testbed and its default
  registry.  ``driver_ops``, the driver lifecycle calls they made
  (prepare, commit, rollback, release, resize, repair), is published;
  the gate fails unless ``capabilities_built == 0``: every lifecycle
  call reads ``capabilities()``, and the in-process adapters return one
  prebuilt instance instead of building a ``DriverCapabilities`` per
  read.  It also counts every frozen dataclass built over the drive,
  publishes ``frozen_built_by_class`` and fails unless ``frozen_built``
  equals ``DRIVER_FROZEN_BUILT`` exactly: a record built and dropped
  inside one operation is plain, so re-freezing one moves the count.
  Then one ``install_admitted_batch`` of 64 slices drives the window
  path (the batch planner and the adapters' ``*_async``) while a spy
  counts ``concurrent.futures.Future.__init__`` calls; it fails unless
  ``locked_futures_built == 0`` — an in-process adapter answers with a
  future born resolved, which builds no lock — and unless one operation
  on a walled driver (``Walled``'s worker hand-off) counts
  exactly 1, so the spy cannot pass vacuously.
- **Edge work** — counted, not timed: a fixed router workload over two
  durable shards (``EDGE_CREATES`` creates, and a head-following
  ``GET /v1/events?after_lsn=`` poll every ``EDGE_POLL_EVERY``
  requests).  It fails unless ``url_parses_per_request == 1`` (the
  router hands a shard the request it parsed) and
  ``feed_lines_decoded == 0`` (a consumer at the head reads the
  leaders' event logs, never the journals); a poll that returned no
  event would make the second vacuous, so the events read are published
  and must be non-zero.
- **Journal bytes** — counted, not timed: the journal that
  ``tests/store/window_scenario.py`` writes (two sync creates, a
  checkpoint, a five-request broker window, one request left open),
  as records and bytes per record type, against ``JOURNAL_BYTES``.
  The table is printed; a type that writes more records or bytes than
  its pin fails the gate, and one that writes fewer asks for the pin
  to be lowered (a warning).  Each request image is written once, at
  its first durable sight; later records name it by id, and a
  ``slice.installed`` trail leaves out the ids its ``reservations``
  name (``trail_entries`` counts what the trails still say).
- **src_lines** — the physical line count of ``src/**/*.py`` is
  published and must not exceed ``SRC_LINES_CEILING``.

D8b and D8d are exact because the southbound's latency, deadlines and
stall release are events on the registry's clock, not host time: any
change to either figure is a change to the install engine, and the pin
moves with it in the same diff.

Usage::

    PYTHONPATH=src:. python benchmarks/ci_gate.py [--out BENCH_ci.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from collections import Counter
from pathlib import Path

# CI scale: big enough that batching visibly wins, small enough for a
# shared runner.  Must be set before the bench module is imported (it
# reads the knobs at import time).
os.environ.setdefault("D8_BATCH_SLICES", "16")
os.environ.setdefault("D8_STALL_JOBS", "16")
os.environ.setdefault("D12_RECORDS", "1000")

from benchmarks.bench_d12_recovery import (  # noqa: E402
    ASSERT_AT as D12_RECORDS,
    FLOOR_SPEEDUP as FLOOR_D12_SPEEDUP,
    run_point as run_d12_point,
)
from benchmarks.bench_d8_scalability import (  # noqa: E402
    BATCH_SLICES,
    LIVE_SLICE_POINTS,
    MIN_POINT_REQUESTS,
    STALL_JOBS,
    STALL_RELEASE_S,
    STALL_TIMEOUT_S,
    _install_burst,
    _stalled_batch,
    run_live_slice_point,
    run_scale_measured,
)

#: D8b pinned at the gate's 16-slice burst: sequentially every slice
#: costs 4 x 2 ms prepare + 4 x 0.5 ms commit (160 ms in all); batched,
#: two rounds of eight jobs each take one 2 ms prepare wave, the vEPC's
#: 2 ms prepare and four commits (12 ms in all).
D8B_SPEEDUP = 13.33
#: D8d pinned: the batch settles at the hung operation's deadline.
D8D_SETTLED_S = 0.15
#: Ceiling on ``count_src_lines()``: growth in ``src/`` is a reviewed
#: diff to this one number, and a PR that shrinks ``src/`` lowers it in
#: the same change.  +49 for the Cephes ``ndtri`` port in
#: ``core/forecasting.py``, which replaced the control plane's only
#: runtime scipy import; −2 for the batch re-adoption; +66 for an
#: integer port of numpy's keyed-stream seeding in ``sim/randomness.py``
#: (+74), which took ``SeedSequence`` and ``PCG64`` construction off every
#: traffic-profile draw, less the standby hand-off's net −8; −724 for
#: deleting what no workload, experiment, route or CLI verb reaches
#: (``benchmarks/reachability.py``); +78 for an epoch that pays only for
#: what a policy reads and what changed (forecasters built at the first
#: read, the touched-slice sets that the live-slot sync and the
#: checkpoint visit, and their verifiers); −34 for one counter-based
#: keyed draw in place of that port and ``derive``, the epoch's
#: slice-id order and the ``NullDriver`` alias's removal; −3 for one
#: prebuilt ``DriverCapabilities`` per in-process adapter; −3 for one
#: virtual southbound clock in place of the mock's timers and the
#: planner's wall-clock deadline heap; −97 for declaring each install
#: setting once (the deadline on the driver, rollback notices on the
#: outcome, the planner's sizes off ``OrchestratorConfig``, one router
#: error shape); −13 for undoing a recovery's orphans through the batch
#: planner (no wall-clock wait or compensation budget of its own) and
#: one lease timeout, ``ClusterConfig.lease_timeout_s``; −237 for one
#: thread per shard (a walled driver's completions come back through the
#: registry's door, and the locks below it are gone); −1 for a control
#: plane with no back-reference to its owner (no ``PeriodicProcess``, no
#: fleet on a slice), net of the warm standby's decoded requests; −5 for
#: the live fleet owning the slice lifecycle (one writer of the runtime
#: table, no pointer back on a slice, one slice-record table); +70 for
#: in-process drivers answering with lock-free resolved futures and the
#: batch knapsack's DP as one array step per item; ±0 for one wrapper
#: owning every driver thread and lock (``drivers/walled.py``) and a
#: lock-free ``BaseDriver``; +29 for the scenario engine's draw-identity
#: loops (no ``Generator.choice``/``uniform``; ``RequestMix`` keeps its
#: cdf) and a serial walled backend's wait bounded by its deadline; −28
#: for one admission queue, the fold's (recovery installs what its
#: rebase queued; the orchestrator's epoch-drained queue is gone); +25
#: for the v1 edge doing its work once (the router hands a shard the
#: request it parsed, routes come from a table, the durable event cursor
#: reads the leader's event log) and a stopped plane settling nothing;
#: +196 for a journal that writes each request image once under a
#: declared format (references resolved by the fold, packed trails, a
#: format line and snapshot member, the readers that refuse a newer
#: format, the upgrade of an undeclared journal) and one prebuilt encoder;
#: +50 for a failover that re-arms without redoing the fleet (a standby
#: armed from the promoted leader, adopted profiles drawn in one numpy
#: batch, a lag decoded once, the leader folding its driver records);
#: +144 for a standby that keeps its plane ready (the build/bind split,
#: `unbuild`/`unclaim`/`discard`, `Simulator.schedule_many` (since gone), the store
#: attached at promotion, snapshot listings only when one can be ahead),
#: net of the decoded-request cache and the lazy profiles it retired;
#: +4 for a ready plane rebuilt from the fold's changed set (the standby
#: poll's own bookkeeping gone, the fold's `changed` documented for it)
#: and the measured crossover of the batched profile draw;
#: +52 for a new leader that serves first (the deposed plane kept until
#: the shard's slot is reused, `EventLog.append_many`, a bind that fills
#: each runtime's reservations from the per-domain listing, and the
#: docstrings that say where the free and the bind's work now fall);
#: −2 for one durable-file seam (``store/files.py``: every fsync, atomic
#: replace and directory sync of the store and the lease, the copies in
#: the snapshot store, the journal and the lease gone); +39 for a standby
#: cycle that does each slice's work once (``LiveFleet.apply_size``, the
#: size's books a poll takes in place of a rebuild; ``LiveFleet.restore``,
#: the recovery build moved out of the orchestrator; ``SliceRequest.clone``;
#: the one-pass bind and the docstrings that say so), net of the −5 of
#: ``codec.prebuilt_encoder``'s pure-Python branch; −105 for a simulator
#: whose queue is a heap of plain ``(time, priority, seq, callback)``
#: tuples (``Event``, ``EventHandle`` and its cancellation, timer names and
#: ``Simulator.schedule_many`` gone), net of the scenario specs' and the
#: engine's refusal of non-finite numbers.
SRC_LINES_CEILING = 20_825

#: GC-tracked objects a promotion's bind step leaves alive per slice (the
#: drill's replay on a memory-only twin, CPython 3.11): reservations map,
#: composed allocation, demand-history deque, timer (a heap tuple and its
#: ``partial``) and ``slice.adopted`` event.  The build
#: happens in the standby's ready plane, outside the outage; the adoption
#: that built and bound in the outage kept 15.55.  Fails above, warns below.
PROMOTION_TRACKED_OBJECTS_PER_SLICE = 6.05

#: The window scenario's journal, record type -> (records, bytes of
#: their lines with newlines).  Format 2 wrote ``install.started`` in
#: 1 401 bytes and ``slice.installed`` in 3 231 (9 238 in all): each
#: repeated the request image, and each trail every reservation id.
JOURNAL_BYTES = {
    "broker.enqueued": (6, 1883),
    "checkpoint.written": (1, 64),
    "event.emitted": (6, 1492),
    "install.started": (4, 524),
    "slice.installed": (3, 1986),
    "slice.rejected": (2, 1167),
}

#: D8 scalability sweep points (eNB counts) and their shortened-horizon
#: simulated hour — the gate records the ms-per-request curve per
#: commit and *warns* (never fails) when it stops being flat.
SWEEP_SCALES = tuple(
    int(token)
    for token in os.environ.get("D8_SWEEP_SCALES", "2,8,32").split(",")
    if token.strip()
)
SWEEP_HORIZON_S = float(os.environ.get("D8_SWEEP_HORIZON_S", "600"))
#: Warn when the per-request cost at the largest sweep point exceeds
#: this multiple of the smallest — the curve should stay near-flat.
#: Tightened (3.0 → 2.0) with the delta-maintained placement indices:
#: the hot path no longer rescans the fleet per request, and every
#: sweep point now measures a median over >= MIN_POINT_REQUESTS
#: requests, so the old single-request noise allowance is gone.
SWEEP_FLATNESS_RATIO = float(os.environ.get("D8_FLATNESS_RATIO", "2.0"))
#: Soft gate: *fail* the build when the curve blows past this explicit
#: tolerance.  Deliberately above the warn ratio — the warn band
#: absorbs shared-runner noise, the gate catches a genuinely
#: super-linear regression.  Tightened (6.0 → 3.0) alongside the warn
#: bar for the same reasons.
SWEEP_FLATNESS_GATE_RATIO = float(os.environ.get("D8_FLATNESS_GATE_RATIO", "3.0"))

#: Sharded-mode sweep points (eNBs *per shard*, 2 shards) — the same
#: flatness warn/gate applies to the router-fronted path.  The floor
#: is 4 eNBs: the per-shard RAN must fit the whole request batch, the
#: point measures cost, not admission pressure.
SHARDED_SCALES = tuple(
    int(token)
    for token in os.environ.get("D8_SHARDED_SCALES", "4,8").split(",")
    if token.strip()
)

#: Slices churned through the recovery smoke.
SMOKE_SLICES = 8

#: The epoch-upkeep gate's fleet and horizon (monitoring epochs).
UPKEEP_SLICES = 64
UPKEEP_EPOCHS = 120

#: The path-search gate's creates, and how many at the end must be
#: answered from memory alone.
PATH_CREATES = 64
PATH_QUIET_TAIL = 16

#: The driver-overhead gate's slices: each is created, rescaled and
#: deleted once.
DRIVER_SLICES = 64
#: Frozen dataclasses built over that drive, pinned exactly: a record
#: built and dropped inside one operation is a plain dataclass, because
#: a frozen one pays an ``object.__setattr__`` per field.  What is left
#: are the records something keys, sorts or shares (allocations, sizes,
#: SLAs, bookings, PLMNs, flow matches).  A change to the drive's record
#: traffic moves the pin in the same diff.
DRIVER_FROZEN_BUILT = 1472

#: Scenario packs the D13 gate runs (tiny scales; the full
#: commuter-failure pack runs in the nightly scenario job).
DEFAULT_SCENARIO_PACKS = ("commuter-failure-smoke", "vehicular-corridor")
DEFAULT_SCENARIO_SEED = 42
SCENARIO_PACKS = tuple(
    token.strip()
    for token in os.environ.get(
        "D13_SCENARIO_PACKS", ",".join(DEFAULT_SCENARIO_PACKS)
    ).split(",")
    if token.strip()
)
SCENARIO_SEED = int(os.environ.get("D13_SCENARIO_SEED", str(DEFAULT_SCENARIO_SEED)))


def _check_flatness(
    label: str, flatness: float, warnings: list, failures: list
) -> None:
    """The two-band flatness check: warn past ``SWEEP_FLATNESS_RATIO``
    (shared-runner noise band), fail past the explicit
    ``SWEEP_FLATNESS_GATE_RATIO`` tolerance (soft gate)."""
    if flatness > SWEEP_FLATNESS_GATE_RATIO:
        failures.append(
            f"{label}: ms_per_request grew {flatness:.2f}x across the sweep "
            f"(gate tolerance {SWEEP_FLATNESS_GATE_RATIO}x) — decision cost "
            "is super-linear"
        )
    elif flatness > SWEEP_FLATNESS_RATIO:
        warnings.append(
            f"{label}: ms_per_request grew {flatness:.2f}x across the sweep "
            f"(warn bar {SWEEP_FLATNESS_RATIO}x, gate "
            f"{SWEEP_FLATNESS_GATE_RATIO}x) — decision cost is no longer flat"
        )


def run_scale_sweep(warnings: list, failures: list) -> dict:
    """D8 at CI scale: the per-request decision-cost curve across
    ``SWEEP_SCALES``.  The flatness check is a *soft gate*: the noise
    band only warns, but a curve past the explicit gate tolerance
    fails the build (a creeping super-linear regression should not
    need a human reading the artifact to be caught).

    Each point accumulates consecutive seeds until it holds at least
    ``MIN_POINT_REQUESTS`` requests; a point that still falls short
    (smoke horizons) is tagged ``sampled: false`` and *excluded* from
    the flatness ratio — the gate must never read a 1-request median
    as a measurement — with a warning recorded in the artifact."""
    curve = {}
    points = []
    for n_enbs in SWEEP_SCALES:
        point = run_scale_measured(n_enbs, horizon_s=SWEEP_HORIZON_S)
        if point["sampled"]:
            curve[n_enbs] = point["ms_per_request"]
        points.append(
            {
                "enbs": n_enbs,
                "requests": point["requests"],
                "runs": point["runs"],
                "wall_s": round(point["wall_s"], 4),
                "ms_per_request": round(point["ms_per_request"], 4),
                "sampled": point["sampled"],
            }
        )
        if not point["sampled"]:
            warnings.append(
                f"D8 sweep: point {n_enbs} eNBs measured only "
                f"{point['requests']} requests across {point['runs']} runs "
                f"(minimum {MIN_POINT_REQUESTS}) — tagged unsampled and "
                "excluded from the flatness ratio"
            )
    if len(curve) >= 2:
        smallest, largest = min(curve), max(curve)
        flatness = curve[largest] / max(curve[smallest], 1e-9)
        _check_flatness("D8 sweep", flatness, warnings, failures)
    else:
        flatness = None
        warnings.append(
            "D8 sweep: fewer than two sampled points — flatness not assessed"
        )
    return {
        "horizon_s": SWEEP_HORIZON_S,
        "points": points,
        "flatness": round(flatness, 2) if flatness is not None else None,
        "flatness_warn_ratio": SWEEP_FLATNESS_RATIO,
        "flatness_gate_ratio": SWEEP_FLATNESS_GATE_RATIO,
    }


def run_sharded_sweep(warnings: list, failures: list) -> dict:
    """The D8 flatness check in *sharded mode*: the same per-request
    cost curve, measured per shard through the
    :class:`~repro.cluster.router.ShardRouter` (2 shards), under the
    same warn/gate bands — the router hop and merge layer must not
    reintroduce the super-linearity sharding exists to remove."""
    from benchmarks.bench_d8_scalability import run_sharded_point

    points = []
    mean_curve = {}
    for n_enbs in SHARDED_SCALES:
        shard_points = run_sharded_point(shards=2, n_enbs_per_shard=n_enbs)
        costs = [p["ms_per_request"] for p in shard_points.values()]
        mean_curve[n_enbs] = sum(costs) / len(costs)
        points.append(
            {
                "enbs_per_shard": n_enbs,
                "per_shard": {str(k): p for k, p in shard_points.items()},
                "ms_per_request_mean": round(mean_curve[n_enbs], 4),
            }
        )
        for shard_id, point in shard_points.items():
            if point["admitted"] != point["requests"]:
                failures.append(
                    f"D8 sharded: shard {shard_id} at {n_enbs} eNBs admitted "
                    f"{point['admitted']}/{point['requests']}"
                )
    smallest, largest = min(SHARDED_SCALES), max(SHARDED_SCALES)
    flatness = mean_curve[largest] / max(mean_curve[smallest], 1e-9)
    _check_flatness("D8 sharded sweep", flatness, warnings, failures)
    return {
        "shards": 2,
        "points": points,
        "flatness": round(flatness, 2),
        "flatness_warn_ratio": SWEEP_FLATNESS_RATIO,
        "flatness_gate_ratio": SWEEP_FLATNESS_GATE_RATIO,
    }


def run_live_slice_sweep(warnings: list, failures: list) -> dict:
    """The flatness check along the axis the D8 sweep does not grow:
    slices already *live* on one durable shard.  Sync create cost at
    the largest point over the smallest goes through the same
    warn/gate bands — a per-request scan of the bookings, the flow
    table, the journal or the slice registry shows up here (the code
    before the indices read 2.5x), not in the eNB sweeps."""
    points = [run_live_slice_point(live) for live in LIVE_SLICE_POINTS]
    for point in points:
        if point["admitted"] != point["requests"]:
            failures.append(
                f"live-slice sweep: {point['admitted']}/{point['requests']} "
                f"admitted at {point['live_slices']} live slices"
            )
    flatness = points[-1]["ms_per_request"] / max(points[0]["ms_per_request"], 1e-9)
    _check_flatness("live-slice sweep", flatness, warnings, failures)
    return {
        "points": [
            dict(point, ms_per_request=round(point["ms_per_request"], 4))
            for point in points
        ],
        "flatness": round(flatness, 2),
        "flatness_warn_ratio": SWEEP_FLATNESS_RATIO,
        "flatness_gate_ratio": SWEEP_FLATNESS_GATE_RATIO,
    }


def run_recovery_smoke(failures: list) -> dict:
    """Churn → SIGKILL-simulated restart (fresh process state over the
    surviving southbound) → reconcile; returns the timing payload and
    appends any reconciliation failure to ``failures``."""
    import tempfile
    import time

    from repro.core.orchestrator import Orchestrator, OrchestratorConfig
    from repro.core.slices import PlmnPool, slice_id_for
    from repro.drivers.base import DomainSpec, ReservationState
    from repro.drivers.mock import MockDriver
    from repro.experiments.testbed import TestbedConfig, build_testbed
    from repro.sim.engine import Simulator
    from repro.sim.randomness import RandomStreams
    from repro.store import ControlPlaneStore, RecoveryManager
    from repro.store.codec import request_to_dict
    from repro.traffic.patterns import ConstantProfile
    from tests.conftest import make_request

    testbed = build_testbed(
        TestbedConfig(n_enbs=4, max_plmns_per_enb=12, plmn_pool_size=40)
    )
    firewall = testbed.registry.register(
        MockDriver("firewall", capacity_mbps=1e6, max_concurrent_installs=8)
    )
    directory = tempfile.mkdtemp(prefix="recovery-smoke-")

    def control_plane(store=None) -> Orchestrator:
        return Orchestrator(
            sim=Simulator(),
            allocator=testbed.allocator,
            plmn_pool=PlmnPool(size=40),
            config=OrchestratorConfig(durability_dir=directory),
            streams=RandomStreams(seed=11),
            registry=testbed.registry,
            store=store,
        )

    first = control_plane()
    first.start()
    decisions = first.install_admitted_batch(
        [
            (make_request(throughput_mbps=5.0), ConstantProfile(5.0))
            for _ in range(SMOKE_SLICES)
        ]
    )
    admitted = sum(d.admitted for d in decisions)
    first.submit_advance(
        make_request(throughput_mbps=5.0, duration_s=600.0),
        ConstantProfile(5.0),
        start_time=1_000.0,
    )
    # A queued admission as the previous format journaled it: nothing
    # writes one today, and the restart must install it.
    queued = make_request(throughput_mbps=5.0)
    first.store.append("admission.enqueued", time=first.sim.now, request=request_to_dict(queued))
    first.store.close(sync=False)  # SIGKILL: the dead process's writes never land
    # Residue no journal record owns: the restart must undo both orphans.
    firewall.prepare(DomainSpec(slice_id="smoke-orphan-prepared", throughput_mbps=5.0))
    firewall.commit(
        firewall.prepare(DomainSpec(slice_id="smoke-orphan-committed", throughput_mbps=5.0))
    )

    restarted = control_plane(store=ControlPlaneStore(directory))
    start = time.perf_counter()
    report = RecoveryManager(restarted).restore()
    recovery_s = time.perf_counter() - start
    restarted.start()

    live_ids = {s.slice_id for s in restarted.live_slices()}
    if report.slices_lost or report.slices_adopted != admitted:
        failures.append(
            f"recovery smoke: adopted {report.slices_adopted}/{admitted}, "
            f"lost {report.slices_lost}"
        )
    if report.orphans_compensated != 2 or report.compensation_failures:
        failures.append(
            f"recovery smoke: orphans_compensated={report.orphans_compensated}, "
            f"compensation_failures={report.compensation_failures} (2/0 expected)"
        )
    if report.bookings_restored != 1 or report.admissions_requeued != 1:
        failures.append(
            f"recovery smoke: bookings_restored={report.bookings_restored}, "
            f"admissions_requeued={report.admissions_requeued} (1/1 expected)"
        )
    if slice_id_for(queued.request_id) not in live_ids or restarted.durable.fold.queued:
        failures.append(
            "recovery smoke: the queued admission was not installed by the restart "
            f"(still queued: {sorted(restarted.durable.fold.queued)})"
        )
    for driver in testbed.registry.drivers():
        reservations = driver.list_reservations()
        leaked = {r.slice_id for r in reservations} - live_ids
        dirty = [
            r for r in reservations
            if r.state is not ReservationState.COMMITTED
        ]
        if leaked or dirty:
            failures.append(
                f"recovery smoke: domain {driver.domain} leaked={sorted(leaked)} "
                f"non-committed={len(dirty)}"
            )
    return {
        "slices": admitted,
        "replayed_records": report.replayed_records,
        "slices_adopted": report.slices_adopted,
        "slices_lost": report.slices_lost,
        "orphans_compensated": report.orphans_compensated,
        "admissions_requeued": report.admissions_requeued,
        "bookings_promoted": report.bookings_promoted,
        "recovery_s": round(recovery_s, 4),
    }


def run_scenario_scores(failures: list) -> dict:
    """D13: the scenario packs at a fixed seed, scored by the engine.

    A dirty audit (lost slices / leaked reservations) or an outage that
    never converges fails the gate; the scores themselves are published
    so the survivability trajectory is inspectable per commit.  At the
    default packs and seed each report digest must also equal its pin
    (``tests/scenarios/test_pinned_digests.py::D13_DIGESTS``): same
    seed, same run, bit for bit.  Other packs or another seed have no
    pin, so an override skips the comparison and says so.
    """
    from repro.scenarios import run_named
    from tests.scenarios.test_pinned_digests import D13_DIGESTS

    compared = (SCENARIO_PACKS, SCENARIO_SEED) == (DEFAULT_SCENARIO_PACKS, DEFAULT_SCENARIO_SEED)
    if not compared:
        print(
            f"D13: packs {','.join(SCENARIO_PACKS)} at seed {SCENARIO_SEED} override "
            "the defaults; digests published, not compared with the pins"
        )
    packs = {}
    for name in SCENARIO_PACKS:
        report = run_named(name, seed=SCENARIO_SEED)
        if not report.clean:
            failures.append(
                f"D13 {name}: lost={report.lost_slices} "
                f"leaked={report.leaked_reservations}"
            )
        if report.outages_healed < report.outages:
            failures.append(
                f"D13 {name}: only {report.outages_healed}/{report.outages} "
                "outages converged inside the horizon"
            )
        if compared and report.digest != D13_DIGESTS[name]:
            failures.append(
                f"D13 {name}: digest {report.digest} != pinned {D13_DIGESTS[name]} "
                f"at seed {SCENARIO_SEED}"
            )
        packs[name] = {
            "seed": SCENARIO_SEED,
            "submitted": report.submitted,
            "admitted": report.admitted,
            "admission_yield": round(report.admission_yield, 4),
            "handovers": report.handovers,
            "rescales_applied": report.rescales_applied,
            "rescales_attempted": report.rescales_attempted,
            "violation_rate": round(report.violation_rate, 4),
            "outages": report.outages,
            "outages_healed": report.outages_healed,
            "heal_convergence_max_s": report.heal_convergence_max_s,
            "repairs_performed": report.repairs_performed,
            "lost": len(report.lost_slices),
            "leaked": len(report.leaked_reservations),
            "wall_s": round(report.wall_s, 3),
            "digest": report.digest,
        }
    return {"seed": SCENARIO_SEED, "digests_compared": compared, "packs": packs}


def run_epoch_upkeep(failures: list) -> dict:
    """What a monitoring epoch costs a fleet nothing is happening to, as
    call counts (a µs figure on a shared runner is weather): from-scratch
    forecaster fits, heal-loop health polls, link lookups in the epochs
    that reconfigure nothing, scalar demand draws, scheduler dispatches
    and live-slot rows re-read."""
    import time

    import numpy as np

    from repro.core.forecasting import Forecaster
    from repro.core.orchestrator import Orchestrator
    from repro.core.overbooking import ForecastOverbooking
    from repro.experiments.testbed import TestbedConfig, build_testbed
    from repro.ran.controller import RanController
    from repro.ran.scheduler import SliceAwareScheduler
    from repro.sim.engine import Simulator
    from repro.sim.randomness import RandomStreams
    from repro.traffic import patterns
    from repro.transport.topology import Topology
    from tests.conftest import make_request

    cells = UPKEEP_SLICES // 8
    testbed = build_testbed(
        TestbedConfig(
            n_enbs=cells, max_plmns_per_enb=12, plmn_pool_size=UPKEEP_SLICES,
            edge_nodes=cells, core_nodes=2 * cells,
        )
    )
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        overbooking=ForecastOverbooking(0.95),
        streams=RandomStreams(seed=11),
        registry=testbed.registry,
    )
    orch.start()
    decisions = orch.install_admitted_batch(
        [
            (
                make_request(throughput_mbps=5.0, duration_s=1e6),
                patterns.DiurnalProfile(5.0, period_s=3_600.0, phase=i / UPKEEP_SLICES),
            )
            for i in range(UPKEEP_SLICES)
        ]
    )
    live = sum(d.admitted for d in decisions)
    if live != UPKEEP_SLICES:
        failures.append(f"epoch upkeep: only {live}/{UPKEEP_SLICES} slices installed")

    counts = {"fit": 0, "health": 0, "link": 0, "demand": 0, "dispatch": 0, "unmet": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def unmet_cells(ran, slice_ids, cells, demand, prbs, priorities):
        """Cells where some slice wants more PRBs than it reserved."""
        on = cells >= 0
        rate = np.array([enb.throughput_per_prb() for enb in ran.enbs()])[cells[on]]
        counts["unmet"] += len(np.unique(cells[on][demand[on] / rate > prbs[on]]))
        return plain_serve(ran, slice_ids, cells, demand, prbs, priorities)

    plain_fit, plain_link = Forecaster.fit, Topology.link
    plain_serve, plain_dispatch = RanController.serve_epoch, SliceAwareScheduler.dispatch
    scalar_draws = [  # the scalar demand of the four classes the pass evaluates as arrays
        (cls, name, cls.__dict__[name])
        for cls in (
            patterns.TrafficProfile, patterns.ConstantProfile, patterns.DiurnalProfile,
            patterns.OnOffProfile, patterns.SpikeProfile,
        )
        for name in ("demand", "fraction")
        if name in cls.__dict__
    ]
    healers = [d for d in orch.registry.drivers() if d.capabilities().supports_repair]
    epoch_s = orch.config.monitoring_epoch_s
    quiet_lookups = 0  # the most any non-reconfiguring epoch made
    quiet_checked = 0  # the most row keys compared in an epoch nothing touched
    row_refreshes = []  # per epoch: (rows re-read, slices resized the epoch before)
    Forecaster.fit = counted("fit", plain_fit)
    Topology.link = counted("link", plain_link)
    RanController.serve_epoch = unmet_cells
    SliceAwareScheduler.dispatch = counted("dispatch", plain_dispatch)
    for cls, name, fn in scalar_draws:
        setattr(cls, name, counted("demand", fn))
    for driver in healers:
        driver.health = counted("health", driver.health)
    try:
        sim.run_until(epoch_s / 2)  # every slice ACTIVE, no epoch served yet
        cursor = resized = 0
        started = time.perf_counter()
        slots = orch.fleet.live_slots
        for epoch in range(1, UPKEEP_EPOCHS + 1):
            before, refreshes, compared = counts["link"], slots.refreshes, slots.compared
            sim.run_until(epoch * epoch_s + epoch_s / 2)
            if epoch % orch.config.reconfig_every_epochs:
                quiet_lookups = max(quiet_lookups, counts["link"] - before)
            if epoch > 1:
                row_refreshes.append((slots.refreshes - refreshes, resized))
                if not resized:
                    quiet_checked = max(quiet_checked, slots.compared - compared)
            fresh = orch.events.since(cursor)
            cursor = fresh[-1].seq if fresh else cursor
            resized = sum(e.event_type == "slice.reconfigured" for e in fresh)
        elapsed_s = time.perf_counter() - started
    finally:
        Forecaster.fit, Topology.link = plain_fit, plain_link
        RanController.serve_epoch, SliceAwareScheduler.dispatch = plain_serve, plain_dispatch
        for cls, name, fn in scalar_draws:
            setattr(cls, name, fn)
        for driver in healers:
            del driver.health
    paths = {s.allocation.transport.path.link_ids for s in orch.active_slices()}
    path_links = sum(len(path) for path in paths)
    reconfigured = sum(
        e.event_type == "slice.reconfigured" for e in orch.events.since(0)
    )
    if counts["fit"] > 2 * live:
        failures.append(
            f"epoch upkeep: {counts['fit']} from-scratch fits for {live} slices "
            f"over {UPKEEP_EPOCHS} epochs (at most 2 per slice: forecasters "
            "must fold samples in, not refit)"
        )
    if counts["health"]:
        failures.append(
            f"epoch upkeep: {counts['health']} health polls with every link up"
        )
    if quiet_lookups > path_links:
        failures.append(
            f"epoch upkeep: {quiet_lookups} link lookups in a quiet epoch > "
            f"{path_links} links on the {len(paths)} distinct paths in use"
        )
    if not reconfigured:
        failures.append("epoch upkeep: overbooking never moved a reservation")
    if counts["demand"]:
        failures.append(
            f"epoch upkeep: {counts['demand']} scalar demand/fraction calls on the "
            "four profile classes the epoch pass evaluates as arrays"
        )
    if counts["dispatch"] > counts["unmet"]:
        failures.append(
            f"epoch upkeep: {counts['dispatch']} scheduler dispatches > "
            f"{counts['unmet']} cell-epochs with unmet demand"
        )
    if quiet_checked:
        failures.append(
            f"epoch upkeep: {quiet_checked} live-slot keys compared in an epoch no "
            "transition or resize touched (0 expected: only touched slots are re-checked)"
        )
    drifted = [(read, want) for read, want in row_refreshes if read != want]
    if drifted:
        failures.append(
            f"epoch upkeep: live-slot rows re-read != slices resized the epoch "
            f"before in {len(drifted)} epochs (first: {drifted[0][0]} vs {drifted[0][1]})"
        )
    return {
        "slices": live,
        "epochs": UPKEEP_EPOCHS,
        "fits": counts["fit"],
        "health_polls": counts["health"],
        "quiet_epoch_link_lookups": quiet_lookups,
        "quiet_epoch_slots_checked": quiet_checked,
        "distinct_paths": len(paths),
        "distinct_path_links": path_links,
        "reconfigurations": reconfigured,
        "epoch_scalar_demands": counts["demand"],
        "epoch_dispatch_cells": counts["dispatch"],
        "epoch_unmet_cells": counts["unmet"],
        "epoch_row_refreshes": sum(read for read, _ in row_refreshes),
        "epoch_rows_resized": sum(want for _, want in row_refreshes),
        "epoch_us_per_slice": round(elapsed_s * 1e6 / (UPKEEP_EPOCHS * max(live, 1)), 2),
    }


def run_path_searches(failures: list) -> dict:
    """What a path query costs between link-state changes, as a count of
    graph searches: first fills and post-outage refills, nothing per
    request."""
    import time

    from repro.core.orchestrator import Orchestrator
    from repro.experiments.testbed import TestbedConfig, build_testbed
    from repro.sim.engine import Simulator
    from repro.sim.randomness import RandomStreams
    from repro.traffic.patterns import ConstantProfile
    from repro.transport import controller, paths
    from tests.conftest import make_request

    testbed = build_testbed(
        TestbedConfig(
            n_enbs=8, max_plmns_per_enb=12, plmn_pool_size=PATH_CREATES,
            edge_nodes=16, core_nodes=8,
        )
    )
    orch = Orchestrator(
        sim=Simulator(),
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=11),
        registry=testbed.registry,
    )
    orch.start()

    pairs, searches = set(), []
    queries = admitted = 0
    query_s = 0.0
    plain_query, plain_search = controller.constrained_shortest_path, paths._dijkstra

    def timed_query(topo, request):
        nonlocal queries, query_s
        queries += 1
        pairs.add((request.src, request.dst))
        started = time.perf_counter()
        try:
            return plain_query(topo, request)
        finally:
            query_s += time.perf_counter() - started

    def counted_search(*args, **kwargs):
        searches.append(created)
        return plain_search(*args, **kwargs)

    uplink = testbed.transport.topology.link("enb1-mmwave-fwd")
    flips = 2  # the one outage: down, and back
    controller.constrained_shortest_path = timed_query
    paths._dijkstra = counted_search
    try:
        for created in range(PATH_CREATES):
            if created == PATH_CREATES // 2:
                uplink.fail()
                uplink.restore()
            # Every other slice is URLLC: its budget rules the core DC
            # out, so the edge gateway's pairs are asked for too.
            request = make_request(
                throughput_mbps=5.0, duration_s=1e6,
                max_latency_ms=10.0 if created % 2 else 50.0,
            )
            admitted += orch.submit(request, ConstantProfile(5.0)).admitted
    finally:
        controller.constrained_shortest_path = plain_query
        paths._dijkstra = plain_search
    if admitted != PATH_CREATES:
        failures.append(f"path searches: only {admitted}/{PATH_CREATES} creates admitted")
    bound = len(pairs) * (1 + flips)
    if len(searches) > bound:
        failures.append(
            f"path searches: {len(searches)} searches for {queries} queries over "
            f"{len(pairs)} (src, dst) pairs and {flips} link-state flips (at most "
            f"{bound}: a search per link-state change, not per request)"
        )
    late = sum(at >= PATH_CREATES - PATH_QUIET_TAIL for at in searches)
    if late:
        failures.append(
            f"path searches: {late} searches in the last {PATH_QUIET_TAIL} creates, "
            f"with no link-state change since create {PATH_CREATES // 2}"
        )
    return {
        "creates": admitted,
        "pairs": len(pairs),
        "link_state_flips": flips,
        "queries": queries,
        "searches": len(searches),
        "memo_share": round(1.0 - len(searches) / max(queries, 1), 4),
        "us_per_query": round(query_s * 1e6 / max(queries, 1), 2),
    }


def run_driver_overhead(failures: list) -> dict:
    """What the southbound pays beyond its domain work, as counts:
    capability records, and frozen records of any kind, built over a
    create, rescale and delete of every slice, against the driver
    lifecycle calls those made; then locked futures built by one
    broker-sized window through the batch planner."""
    from concurrent.futures import Future

    from repro.core.orchestrator import Orchestrator
    from repro.drivers.adapters import RanDriver
    from repro.drivers.walled import Walled
    from repro.experiments.testbed import TestbedConfig, build_testbed
    from repro.sim.engine import Simulator
    from repro.sim.randomness import RandomStreams
    from repro.traffic.patterns import ConstantProfile
    from tests.conftest import make_request
    from tests.test_value_records import frozen_dataclasses

    testbed = build_testbed(
        TestbedConfig(
            n_enbs=8, max_plmns_per_enb=12, plmn_pool_size=DRIVER_SLICES,
            edge_nodes=16, core_nodes=8,
        )
    )
    orch = Orchestrator(
        sim=Simulator(),
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=11),
        registry=testbed.registry,
    )
    orch.start()

    built, calls = Counter(), []
    frozen = {cls: cls.__init__ for cls in frozen_dataclasses().values()}

    def counted_init(cls, plain_init):
        def init(self, *args, **kwargs):
            built[cls.__name__] += 1
            plain_init(self, *args, **kwargs)

        return init

    def counted(driver, name):
        plain = getattr(driver, name)

        def call(*args, **kwargs):
            calls.append((driver.domain, name))
            return plain(*args, **kwargs)

        setattr(driver, name, call)

    lifecycle = ("prepare", "commit", "rollback", "release", "resize", "repair")
    for driver in testbed.registry.drivers():
        for name in lifecycle:
            counted(driver, name)
    for cls, plain_init in frozen.items():
        cls.__init__ = counted_init(cls, plain_init)
    try:
        decisions = [
            orch.submit(make_request(throughput_mbps=5.0, duration_s=1e6), ConstantProfile(5.0))
            for _ in range(DRIVER_SLICES)
        ]
        created = [decision.slice_id for decision in decisions if decision.admitted]
        orch.sim.run_until(10.0)
        rescaled = sum(orch.modify_slice(slice_id, 4.0).admitted for slice_id in created)
        for slice_id in created:
            orch.terminate_early(slice_id)
    finally:
        for cls, plain_init in frozen.items():
            cls.__init__ = plain_init
        for driver in testbed.registry.drivers():
            for name in lifecycle:
                vars(driver).pop(name)
    deleted = len(created) - len(orch.live_slices())
    if not len(created) == rescaled == deleted == DRIVER_SLICES:
        failures.append(
            f"driver overhead: {len(created)} creates, {rescaled} rescales and "
            f"{deleted} deletes of {DRIVER_SLICES} done"
        )

    futures_built = []
    stock_init = Future.__init__

    def counted_future(future):
        futures_built.append(future)
        stock_init(future)

    Future.__init__ = counted_future
    try:
        window = orch.install_admitted_batch(
            [(make_request(throughput_mbps=5.0, duration_s=1e6), ConstantProfile(5.0))
             for _ in range(DRIVER_SLICES)]
        )
        locked_futures_built = len(futures_built)
        # The RAN adapter behind the worker hand-off.
        walled = Walled(RanDriver(testbed.registry.get("ran").controller))
        walled.release_async("slice-never-installed").exception(timeout=10.0)
        walled_futures_built = len(futures_built) - locked_futures_built
    finally:
        Future.__init__ = stock_init
    window_installs = sum(decision.admitted for decision in window)
    if window_installs != DRIVER_SLICES:
        failures.append(
            f"driver overhead: the window installed {window_installs} of {DRIVER_SLICES}"
        )
    if locked_futures_built or walled_futures_built != 1:
        failures.append(
            f"driver overhead: a {DRIVER_SLICES}-slice window built "
            f"{locked_futures_built} locked futures (0 expected: an in-process adapter "
            f"answers with a resolved one) and a walled operation {walled_futures_built} "
            "(1 expected: its future crosses a thread)"
        )
    capabilities_built = built["DriverCapabilities"]
    if capabilities_built:
        failures.append(
            f"driver overhead: {capabilities_built} DriverCapabilities built over "
            f"{len(calls)} driver lifecycle calls (0 expected: they are constants)"
        )
    frozen_built = built.total()
    if frozen_built != DRIVER_FROZEN_BUILT:
        failures.append(
            f"driver overhead: {frozen_built} frozen records built != pinned "
            f"{DRIVER_FROZEN_BUILT} ({dict(sorted(built.items()))}; a per-operation "
            "record is a plain dataclass)"
        )
    return {
        "creates": len(created),
        "rescales": rescaled,
        "deletes": deleted,
        "driver_ops": len(calls),
        "capabilities_built": capabilities_built,
        "frozen_built": frozen_built,
        "frozen_built_by_class": dict(sorted(built.items())),
        "window_installs": window_installs,
        "locked_futures_built": locked_futures_built,
        "walled_futures_built": walled_futures_built,
    }


#: The edge-work drive: creates through the router, and one
#: head-following durable feed poll every ``EDGE_POLL_EVERY`` requests.
EDGE_CREATES = 120
EDGE_POLL_EVERY = 10


def run_edge_work(failures: list) -> dict:
    """What the v1 edge does per request, as counts: URL parses (the
    router's own, and none again at the shard) and journal lines a
    head-following ``after_lsn`` poll decodes (none: the leaders' event
    logs serve it)."""
    import tempfile

    import repro.api.rest as rest
    from repro.cluster import ClusterConfig, ControlPlaneCluster
    from repro.experiments.testbed import TestbedConfig, build_testbed
    from repro.store.journal import JournalRecord

    shards = 2
    cluster = ControlPlaneCluster(
        ClusterConfig(shards=shards, durability_root=tempfile.mkdtemp(prefix="edge-work-"),
                      plmn_pool_size=128),
        testbeds=[
            build_testbed(TestbedConfig(n_enbs=8, max_plmns_per_enb=16, plmn_pool_size=128,
                                        edge_nodes=8, core_nodes=16))
            for _ in range(shards)
        ],
    )
    router = cluster.router
    tenants = [f"tenant-{i}" for i in range(8)]
    counts = Counter()
    plain_urlsplit, plain_decode = rest.urlsplit, JournalRecord.from_line.__func__

    def urlsplit(url, *args):
        counts["url_parses"] += 1
        return plain_urlsplit(url, *args)

    def from_line(cls, line):
        counts["lines_decoded"] += 1
        return plain_decode(cls, line)

    cursor = "0"
    while True:  # a consumer at the head before the drive starts
        body = router.get(f"/v1/events?after_lsn={cursor}&limit=1000").body
        if not body["events"]:
            break
        cursor = body["next_after_lsn"]
    rest.urlsplit = urlsplit
    try:
        for index in range(EDGE_CREATES):
            tenant = tenants[index % len(tenants)]
            response = router.post("/v1/slices", headers={"x-tenant-id": tenant}, body={
                "tenant_id": tenant, "service_type": "embb", "throughput_mbps": 2.0,
                "max_latency_ms": 50.0, "duration_s": 3600.0, "price": 10.0, "penalty_rate": 1.0,
            })
            counts["requests"] += 1
            counts["created"] += response.status == 201
            if counts["requests"] % EDGE_POLL_EVERY == 0:
                JournalRecord.from_line = classmethod(from_line)
                try:
                    feed = router.get(f"/v1/events?after_lsn={cursor}&limit=1000").body
                finally:
                    JournalRecord.from_line = classmethod(plain_decode)
                counts["requests"] += 1
                counts["polls"] += 1
                counts["events_read"] += len(feed["events"])
                cursor = feed["next_after_lsn"]
    finally:
        rest.urlsplit = plain_urlsplit
        cluster.close()
    parses_per_request = counts["url_parses"] / counts["requests"]
    if parses_per_request != 1:
        failures.append(
            f"edge work: {counts['url_parses']} URL parses for {counts['requests']} "
            "requests (1 per request expected: the router hands a shard the request it parsed)"
        )
    if counts["lines_decoded"] or not counts["events_read"]:
        failures.append(
            f"edge work: head-following polls decoded {counts['lines_decoded']} journal "
            f"lines for {counts['events_read']} events (0 lines expected: the leaders' "
            "event logs serve a consumer at the head)"
        )
    return {
        "requests": counts["requests"],
        "created": counts["created"],
        "polls": counts["polls"],
        "events_read": counts["events_read"],
        "url_parses_per_request": parses_per_request,
        "feed_lines_decoded": counts["lines_decoded"],
    }


def run_durable_writes(failures: list) -> dict:
    """What a shard's durable writes cost, as counts: slices a checkpoint
    re-encodes, and fsyncs a broker window's group commit issues."""
    import tempfile

    from repro.core.broker import SliceBroker
    from repro.core.orchestrator import Orchestrator, OrchestratorConfig
    from repro.experiments.testbed import TestbedConfig, build_testbed
    from repro.sim.engine import Simulator
    from repro.sim.randomness import RandomStreams
    from repro.traffic.patterns import ConstantProfile
    from tests.conftest import make_request

    testbed = build_testbed(
        TestbedConfig(n_enbs=8, max_plmns_per_enb=12, plmn_pool_size=96,
                      edge_nodes=8, core_nodes=16)
    )
    orch = Orchestrator(
        sim=Simulator(),
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        config=OrchestratorConfig(durability_dir=tempfile.mkdtemp(prefix="durable-writes-")),
        streams=RandomStreams(seed=11),
        registry=testbed.registry,
    )
    orch.start()
    orch.install_admitted_batch(
        [(make_request(throughput_mbps=5.0, duration_s=1e6), ConstantProfile(5.0))
         for _ in range(32)]
    )
    orch.sim.run_until(10.0)
    live = orch.live_slices()
    encoded, visited = {}, {}  # per checkpoint: slices encoded, slices re-checked

    def checkpoint(phase):
        visited[phase] = len(orch.durable.fold.changed)  # the slices folded records named
        encoded[phase] = orch.durable.checkpoint()["fragments_encoded"]

    checkpoint("first")
    checkpoint("unchanged")
    rescaled = sum(orch.modify_slice(s.slice_id, 6.0).admitted for s in live[:3])
    checkpoint("rescaled")

    broker = SliceBroker(orch, window_s=300.0)
    told = []
    fsyncs = []
    for _ in range(64):
        broker.submit(
            make_request(throughput_mbps=5.0, duration_s=1e6), ConstantProfile(5.0),
            on_decision=lambda decision: told.append(len(fsyncs)),
        )
    orch.store.sync()
    records_before = orch.store.last_lsn
    plain_fsync = os.fsync
    os.fsync = lambda fd: (fsyncs.append(fd), plain_fsync(fd))[1]
    try:
        broker.flush()
    finally:
        os.fsync = plain_fsync
    orch.store.close()
    if encoded["unchanged"]:
        failures.append(
            f"durable writes: a checkpoint of an unchanged fleet encoded "
            f"{encoded['unchanged']} slices (0 expected)"
        )
    if encoded["rescaled"] != rescaled:
        failures.append(
            f"durable writes: a checkpoint after {rescaled} rescales encoded "
            f"{encoded['rescaled']} slices"
        )
    if visited["unchanged"] or visited["rescaled"] != rescaled:
        failures.append(
            f"durable writes: checkpoints re-checked {visited['unchanged']} slices of an "
            f"unchanged fleet (0 expected) and {visited['rescaled']} after {rescaled} rescales"
        )
    if len(fsyncs) != 1 or told[:1] != [1]:
        failures.append(
            f"durable writes: a 64-request window issued {len(fsyncs)} fsyncs, "
            f"{told[:1]} before its first callback (1 before it expected)"
        )
    return {
        "live_slices": len(live),
        "checkpoint_fragments_encoded": encoded,
        "checkpoint_slices_visited": visited,
        "rescaled": rescaled,
        "window_requests": len(told),
        "window_journal_records": orch.store.last_lsn - records_before,
        "window_journal_fsyncs": len(fsyncs),
    }


def run_journal_bytes(failures: list, warnings: list) -> dict:
    """Records and bytes per record type of the window scenario's
    journal, against ``JOURNAL_BYTES``; prints the table."""
    import tempfile

    from repro.store.codec import trail_of
    from repro.store.journal import FORMAT_LINE, JournalRecord
    from tests.store import window_scenario

    directory = tempfile.mkdtemp(prefix="journal-bytes-")
    window_scenario.run(directory)
    path = os.path.join(directory, f"shard-{window_scenario.SHARD:03d}", "journal.jsonl")
    with open(path, encoding="ascii") as handle:
        lines = handle.read().splitlines(keepends=True)
    if lines[:1] != [FORMAT_LINE]:
        failures.append(f"journal bytes: the journal does not open with {FORMAT_LINE!r}")
    table: dict = {}
    trail_entries = 0
    for line in lines[1:]:
        record = JournalRecord.from_line(line)
        row = table.setdefault(record.record_type, [0, 0])
        row[0] += 1
        row[1] += len(line)
        trail_entries += len(trail_of(record.data))
    print("journal bytes (window scenario): type, records, bytes, pinned")
    for kind in sorted({*table, *JOURNAL_BYTES}):
        records, size = table.get(kind, (0, 0))
        pinned = JOURNAL_BYTES.get(kind, (0, 0))
        print(f"  {kind:<20} {records:>4} {size:>6}   {pinned[0]:>4} {pinned[1]:>6}")
        if records > pinned[0] or size > pinned[1]:
            failures.append(
                f"journal bytes: {kind} wrote {records} records / {size} bytes "
                f"> pinned {pinned[0]} / {pinned[1]}"
            )
        elif (records, size) != pinned:
            warnings.append(
                f"journal bytes: {kind} wrote {records} records / {size} bytes, "
                f"below pinned {pinned[0]} / {pinned[1]}: lower JOURNAL_BYTES"
            )
    return {
        "by_type": {kind: {"records": n, "bytes": b} for kind, (n, b) in sorted(table.items())},
        "records": sum(n for n, _ in table.values()),
        "bytes": sum(b for _, b in table.values()),
        "format_line_bytes": len(lines[0]) if lines else 0,
        "trail_entries": trail_entries,
    }


def count_src_lines() -> int:
    """Physical lines of ``src/**/*.py`` — the ROADMAP's tracked size."""
    src = Path(__file__).resolve().parent.parent / "src"
    return sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))


def check_src_lines(src_lines: int, failures: list) -> None:
    """Fail the gate when ``src/`` has outgrown its ceiling."""
    if src_lines > SRC_LINES_CEILING:
        failures.append(
            f"src: {src_lines} physical lines > SRC_LINES_CEILING "
            f"{SRC_LINES_CEILING} (raise the constant in benchmarks/ci_gate.py "
            "only as a reviewed decision to grow src/)"
        )


def run_gate() -> dict:
    """Run the experiments; returns the artifact payload."""
    failures = []
    warnings = []
    src_lines = count_src_lines()
    check_src_lines(src_lines, failures)

    sequential_s = _install_burst(BATCH_SLICES, batched=False)
    batched_s = _install_burst(BATCH_SLICES, batched=True)
    d8b_speedup = sequential_s / max(batched_s, 1e-9)
    if round(d8b_speedup, 2) != D8B_SPEEDUP:
        failures.append(
            f"D8b: batched speedup {d8b_speedup:.4f}x != pinned {D8B_SPEEDUP}x"
        )

    async_s, async_ok, async_timeouts = _stalled_batch()
    if async_ok < STALL_JOBS - 1:
        failures.append(
            f"D8d: only {async_ok}/{STALL_JOBS} healthy jobs committed under stall"
        )
    if round(async_s, 6) != D8D_SETTLED_S:
        failures.append(
            f"D8d: the stalled batch settled at {async_s:.6f}s != pinned "
            f"{D8D_SETTLED_S}s (its deadline)"
        )

    sweep = run_scale_sweep(warnings, failures)
    sharded = run_sharded_sweep(warnings, failures)
    live_slices = run_live_slice_sweep(warnings, failures)

    import tempfile

    d12 = run_d12_point(tempfile.mkdtemp(prefix="d12-gate-"), D12_RECORDS)
    if d12["speedup"] < FLOOR_D12_SPEEDUP:
        failures.append(
            f"D12: snapshot recovery speedup {d12['speedup']:.2f}x < floor "
            f"{FLOOR_D12_SPEEDUP}x at {d12['records']} records"
        )
    smoke = run_recovery_smoke(failures)

    from benchmarks.failover_drill import run_failover_drill

    drill = run_failover_drill(failures)
    for count, ceiling, why in (
        ("promotion_journal_records", 2, "the rebase and the completion record"),
        ("promotion_fsyncs", 2, "the lease file and its directory"),
        ("promotion_profiles_derived", 1, "the lag's profiles are drawn in one batch"),
        ("promotion_snapshot_parses", 0, "no snapshot is decoded"),
        ("promotion_template_builds", 1, "the vEPC is sized once"),
        ("promotion_fleet_serialisations", 0, "no checkpoint closes a recovery"),
        ("promotion_cell_scans", 1, "the fleet is sized off one cell read"),
        ("promotion_calendar_commits", 1, "the windows enter the calendar at once"),
        ("promotion_plmn_formats", 0, "a PLMN claim validates by arithmetic"),
        ("promotion_checked_transitions", 0, "a slice goes live with one check"),
        ("first_epoch_seed_sequences", 0, "profiles are seeded by arithmetic"),
    ):
        if drill.get("promoted") and drill[count] > ceiling:
            failures.append(f"drill: {count} = {drill[count]} > {ceiling} ({why})")
    for count, exact, why in (
        ("promotion_requests_decoded", drill.get("batch"), "the standby decoded all but the lag"),
        ("deposed_plane_garbage", 0, "reference counting frees the deposed plane"),
        ("deposed_planes_freed_in_outage", 0, "the re-arm frees the deposed plane, not the outage"),
        ("successor_requests_decoded", 0, "the successor clones the leader's requests"),
        ("successor_snapshot_parses", 0, "the successor starts from the leader's fold"),
        ("successor_first_poll_records", 0, "the successor starts at the leader's LSN"),
        ("first_epoch_profiles_drawn", 0, "the ready plane drew every adopted profile"),
        ("first_epoch_profile_batches", 0, "the ready plane drew every adopted profile"),
        ("promotion_slices_built", drill.get("batch"), "the lag's slices, no untouched one"),
        ("promotion_plmn_claims", drill.get("batch"), "the lag's slices, no untouched one"),
        ("promotion_calendar_windows", drill.get("batch"), "the lag's slices, no untouched one"),
        ("promotion_profiles_drawn", drill.get("batch"), "the lag's slices, no untouched one"),
    ):
        if drill.get("promoted") and drill[count] != exact:
            failures.append(f"drill: {count} = {drill[count]} != {exact} ({why})")
    tracked = drill.get("promotion_tracked_objects_per_slice", 0.0)
    if tracked > PROMOTION_TRACKED_OBJECTS_PER_SLICE:
        failures.append(
            f"drill: promotion_tracked_objects_per_slice = {tracked} > "
            f"{PROMOTION_TRACKED_OBJECTS_PER_SLICE} (what a promotion's bind keeps per slice)"
        )
    elif tracked < PROMOTION_TRACKED_OBJECTS_PER_SLICE:
        warnings.append(
            f"drill: promotion_tracked_objects_per_slice fell to {tracked} "
            f"(lower PROMOTION_TRACKED_OBJECTS_PER_SLICE)"
        )
    from benchmarks.failover_drill import LAG_CREATES, LAG_RESCALES

    for live, point in drill.get("promotion_ladder", {}).items():
        for repeat, run in enumerate(point["runs"]):
            for count, exact in (
                ("lag_built", LAG_CREATES), ("lag_plmn_claims", LAG_CREATES),
                ("lag_calendar_windows", LAG_CREATES), ("lag_profiles_drawn", LAG_CREATES),
                ("lag_in_place", LAG_RESCALES), ("lost", 0),
            ):
                if run[count] != exact:
                    failures.append(f"drill: ladder at {live} slices, run {repeat}: "
                                    f"{count} = {run[count]} != {exact}")
    # The full promotion trace belongs to the drill's own artifact, not
    # the per-commit perf summary.
    drill.pop("promotion", None)
    drill.pop("journal_status", None)

    d13 = run_scenario_scores(failures)
    upkeep = run_epoch_upkeep(failures)
    path_searches = run_path_searches(failures)
    durable_writes = run_durable_writes(failures)
    driver_overhead = run_driver_overhead(failures)
    edge_work = run_edge_work(failures)
    journal_bytes = run_journal_bytes(failures, warnings)

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "src_lines": src_lines,
        "src_lines_ceiling": SRC_LINES_CEILING,
        "d8b": {
            "slices": BATCH_SLICES,
            "sequential_s": round(sequential_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(d8b_speedup, 2),
            "pinned": D8B_SPEEDUP,
        },
        "d8d": {
            "jobs": STALL_JOBS,
            "stall_release_s": STALL_RELEASE_S,
            "deadline_s": STALL_TIMEOUT_S,
            "async_s": round(async_s, 4),
            "pinned_s": D8D_SETTLED_S,
            "async_jobs_ok": async_ok,
            "async_ops_timed_out": async_timeouts,
            "isolation": round(STALL_RELEASE_S / max(async_s, 1e-9), 2),
        },
        "d12": {
            "journal_records": d12["records"],
            "live_slices": d12["live"],
            "full_replay_ms": round(d12["full_ms"], 3),
            "snapshot_ms": round(d12["snapshot_ms"], 3),
            "speedup": round(d12["speedup"], 2),
            "floor": FLOOR_D12_SPEEDUP,
        },
        "d8_sweep": sweep,
        "d8_sharded": sharded,
        "d8_live_slices": live_slices,
        "recovery_smoke": smoke,
        "failover_drill": drill,
        "d13_scenarios": d13,
        "epoch_upkeep": upkeep,
        "path_searches": path_searches,
        "durable_writes": durable_writes,
        "driver_overhead": driver_overhead,
        "edge_work": edge_work,
        "journal_bytes": journal_bytes,
        "failures": failures,
        "warnings": warnings,
        "ok": not failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_ci.json", help="artifact path (JSON)"
    )
    args = parser.parse_args(argv)
    payload = run_gate()
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    for warning in payload["warnings"]:
        print(f"\nPERF GATE WARNING: {warning}", file=sys.stderr)
    if payload["failures"]:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in payload["failures"]:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"\nperf gate ok: D8b {payload['d8b']['speedup']}x "
        f"(pinned {D8B_SPEEDUP}x), "
        f"D8d {payload['d8d']['isolation']}x (settled at {D8D_SETTLED_S}s), "
        f"D12 {payload['d12']['speedup']}x (floor {FLOOR_D12_SPEEDUP}x), "
        f"recovery smoke {payload['recovery_smoke']['recovery_s']}s, "
        f"failover drill {payload['failover_drill']['recovery_s']}s "
        f"({payload['failover_drill']['slices_adopted']} adopted / "
        f"{payload['failover_drill']['slices_lost']} lost, "
        f"{payload['failover_drill']['promotion_journal_records']} journal records, "
        f"{payload['failover_drill']['promotion_fsyncs']} fsyncs, "
        f"{payload['failover_drill']['promotion_profiles_derived']} profiles drawn, "
        f"{payload['failover_drill']['promotion_snapshot_parses']} snapshots parsed, "
        f"{payload['failover_drill']['promotion_template_builds']} vEPC templates, "
        f"{payload['failover_drill']['promotion_fleet_serialisations']} fleet serialisations, "
        f"{payload['failover_drill']['promotion_requests_decoded']} requests decoded, "
        f"{payload['failover_drill']['deposed_plane_garbage']} deposed objects collected, "
        f"{payload['failover_drill']['deposed_planes_freed_in_outage']} deposed planes freed "
        f"in the outage, "
        f"{payload['failover_drill']['recovery_ms_per_adopted_slice']} ms per slice; "
        f"successor {payload['failover_drill']['successor_requests_decoded']} requests "
        f"decoded, first poll {payload['failover_drill']['successor_first_poll_records']} "
        f"records / {payload['failover_drill']['successor_snapshot_parses']} snapshots, "
        f"first epoch {payload['failover_drill']['first_epoch_profiles_drawn']} profiles in "
        f"{payload['failover_drill']['first_epoch_profile_batches']} batch(es), "
        f"{payload['failover_drill']['first_epoch_seed_sequences']} SeedSequences), "
        f"D13 {len(payload['d13_scenarios']['packs'])} scenario packs clean"
        f"{', digests as pinned' if payload['d13_scenarios']['digests_compared'] else ''}, "
        f"epoch upkeep {payload['epoch_upkeep']['fits']} fits / "
        f"{payload['epoch_upkeep']['slices']} slices, "
        f"{payload['epoch_upkeep']['quiet_epoch_slots_checked']} keys compared in a quiet epoch "
        f"({payload['epoch_upkeep']['epoch_us_per_slice']} us per slice-epoch, not gated), "
        f"path searches {payload['path_searches']['searches']} for "
        f"{payload['path_searches']['queries']} queries "
        f"({payload['path_searches']['us_per_query']} us per query, not gated), "
        f"durable writes {payload['durable_writes']['checkpoint_fragments_encoded']} "
        f"fragments encoded, {payload['durable_writes']['checkpoint_slices_visited']} "
        f"slices re-checked, {payload['durable_writes']['window_journal_fsyncs']} fsync "
        f"per window, "
        f"driver overhead {payload['driver_overhead']['capabilities_built']} "
        f"capabilities / {payload['driver_overhead']['frozen_built']} frozen records "
        f"built over {payload['driver_overhead']['driver_ops']} driver ops, "
        f"{payload['driver_overhead']['locked_futures_built']} locked futures per window, "
        f"edge work {payload['edge_work']['url_parses_per_request']} URL parses per request / "
        f"{payload['edge_work']['feed_lines_decoded']} feed lines decoded, "
        f"journal bytes {payload['journal_bytes']['bytes']} in "
        f"{payload['journal_bytes']['records']} records, "
        f"src {payload['src_lines']} lines"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
