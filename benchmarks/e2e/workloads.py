"""The four workloads: ``churn``, ``burst``, ``failover``, ``commuter``.

Each is a seeded, fixed-count operation sequence driven by one closed
loop client (the next request is sent when the previous one returned).
No sleeps, no timers, zero emulated southbound latency; time advances
only when the client advances the simulated clock.  Why each exists is
in ``README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import random
import shutil
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import fleet as fleet_mod
from .pacing import Pacer, Segment
from .trace import Tracer

OK, REFUSED, FAILED = "ok", "refused", "failed"

#: (start, end) instants of one operation.
Timing = Tuple[float, float]

#: Seconds between admission and ACTIVE in the program (its default).
DEPLOY_S = 3.0
#: The program's broker window (its default) and monitoring epoch.
WINDOW_S = 300.0
EPOCH_S = 60.0
#: Creates per segment of a preload.
PRELOAD_CHUNK = 100


class Tally:
    """Outcome counts per operation class, and the first few failures."""

    def __init__(self) -> None:
        self.counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: {OK: 0, REFUSED: 0, FAILED: 0}
        )
        self.failures: List[str] = []
        self.offered = 0
        self.admitted = 0

    def add(self, op_class: str, outcome: str, detail: str = "") -> None:
        self.counts[op_class][outcome] += 1
        if outcome == FAILED and len(self.failures) < 3:
            self.failures.append(f"{op_class}: {detail}")

    def total(self, outcome: str) -> int:
        return sum(row[outcome] for row in self.counts.values())

    @property
    def attempted(self) -> int:
        return sum(sum(row.values()) for row in self.counts.values())

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {name: dict(row) for name, row in sorted(self.counts.items())}


@dataclass
class SliceRef:
    """A slice the client was told exists."""

    slice_id: str
    tenant: str
    born: float  # shard-elapsed seconds at creation
    expires: float  # shard-elapsed seconds it is gone by (client's estimate)


class Client:
    """One closed-loop v1 client in front of the router."""

    SIZES_MBPS = (2.0, 3.0, 4.0, 5.0)

    def __init__(
        self,
        fleet: fleet_mod.Fleet,
        rng: random.Random,
        tally: Tally,
        durations_s: Tuple[float, float],
        tick: Callable[[], None],
    ) -> None:
        self.fleet = fleet
        self.rng = rng
        self.tally = tally
        self.durations_s = durations_s
        self.tracer: Optional[Tracer] = None
        #: Called between operations: the current phase's ``Pacer.tick``.
        self.tick = tick
        #: Set-up traffic is tallied under one class, ``setup``, and
        #: stays out of the offered/admitted share.
        self.measuring = False
        self.live: List[List[SliceRef]] = [[] for _ in range(fleet_mod.SHARDS)]
        #: Slices whose DELETE was answered with an error: the client
        #: gives up on them, and what became of them is the program's.
        self.failed_deletes: set = set()
        self.events_cursor = "0"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def op_span(self, op_class: str):
        return self.tracer.op(op_class) if self.tracer is not None else nullcontext()

    def call(
        self,
        op_class: str,
        method: str,
        path: str,
        body: Optional[dict] = None,
        tenant: Optional[str] = None,
        ok: int = 200,
        refusable: bool = False,
    ) -> Tuple[Any, Timing, str]:
        """Send one request; returns (response, (start, end), outcome)."""
        with self.op_span(op_class):
            started = perf_counter()
            response = self.fleet.request(method, path, body, tenant)
            timing = (started, perf_counter())
        self.tick()
        if response.status == ok:
            outcome = OK
        elif refusable and response.status == 409:
            outcome = REFUSED
        else:
            outcome = FAILED
        self.count(
            op_class, outcome, f"{method} {path} -> {response.status} {response.body}"
        )
        return response, timing, outcome

    def count(self, op_class: str, outcome: str, detail: str = "") -> None:
        self.tally.add(op_class if self.measuring else "setup", outcome, detail)

    def advance(self, seconds: float) -> None:
        with self.op_span("advance"):
            self.fleet.advance(seconds, self.tick)
        for shard, refs in enumerate(self.live):
            now = self.fleet.elapsed[shard]
            self.live[shard] = [ref for ref in refs if ref.expires > now]

    def pick_tenant(self) -> str:
        return self.rng.choice(self.fleet.tenants)

    def pick(self, shard: int, active: bool = False) -> Optional[SliceRef]:
        """A uniformly chosen known slice of ``shard``; ``active`` skips
        those still deploying."""
        refs = self.live[shard]
        if not active:
            return self.rng.choice(refs) if refs else None
        horizon = self.fleet.elapsed[shard] - DEPLOY_S
        # Rejection sampling keeps the client's own cost per pick flat;
        # the full scan is the fallback when few slices qualify.
        for _ in range(8 if refs else 0):
            ref = self.rng.choice(refs)
            if ref.born <= horizon:
                return ref
        pool = [ref for ref in refs if ref.born <= horizon]
        return self.rng.choice(pool) if pool else None

    def slice_body(self, tenant: str, duration_s: Optional[float] = None) -> dict:
        mbps = self.rng.choice(self.SIZES_MBPS)
        urllc = self.rng.random() < 0.2
        return {
            "service_type": "urllc" if urllc else "embb",
            "throughput_mbps": mbps,
            "max_latency_ms": 10.0 if urllc else 50.0,
            "duration_s": duration_s or round(self.rng.uniform(*self.durations_s), 1),
            "price": round(mbps * self.rng.uniform(5.0, 15.0), 2),
            "penalty_rate": 1.0,
            "tenant_id": tenant,
        }

    # ------------------------------------------------------------------
    # Operations: each returns ((start, end), outcome)
    # ------------------------------------------------------------------
    def create(self, tenant: Optional[str] = None):
        tenant = tenant or self.pick_tenant()
        body = self.slice_body(tenant)
        response, timing, outcome = self.call(
            "create", "POST", "/v1/slices", body, tenant, ok=201, refusable=True
        )
        if self.measuring:
            self.tally.offered += 1
            self.tally.admitted += outcome == OK
        if outcome == OK:
            shard = self.fleet.shard_of[tenant]
            born = self.fleet.elapsed[shard]
            self.live[shard].append(
                SliceRef(response.body["slice_id"], tenant, born,
                         born + body["duration_s"])
            )
        return timing, outcome

    def _shard(self, shard: Optional[int]) -> int:
        return self.fleet.shard_of[self.pick_tenant()] if shard is None else shard

    def delete(self, shard: Optional[int] = None):
        shard = self._shard(shard)
        ref = self.pick(shard)
        if ref is None:
            return self.get(shard)
        _, timing, outcome = self.call(
            "delete", "DELETE", f"/v1/slices/{ref.slice_id}", tenant=ref.tenant
        )
        self.live[shard].remove(ref)
        if outcome == FAILED:
            self.failed_deletes.add(ref.slice_id)
        return timing, outcome

    def rescale(self, shard: Optional[int] = None):
        shard = self._shard(shard)
        ref = self.pick(shard, active=True)
        if ref is None:
            return self.get(shard)
        body = {"throughput_mbps": self.rng.choice(self.SIZES_MBPS)}
        _, timing, outcome = self.call(
            "rescale", "PATCH", f"/v1/slices/{ref.slice_id}", body, ref.tenant,
            refusable=True,
        )
        return timing, outcome

    def get(self, shard: Optional[int] = None):
        shard = self._shard(shard)
        ref = self.pick(shard)
        if ref is None:
            return self.create(self.rng.choice(
                [t for t in self.fleet.tenants if self.fleet.shard_of[t] == shard]
            ))
        _, timing, outcome = self.call(
            "get", "GET", f"/v1/slices/{ref.slice_id}", tenant=ref.tenant
        )
        return timing, outcome

    def list_page(self):
        known = sum(len(refs) for refs in self.live)
        offset = self.rng.randrange(max(1, known - 50))
        _, timing, outcome = self.call(
            "list", "GET", f"/v1/slices?state=active&offset={offset}&limit=50"
        )
        return timing, outcome

    def events_tail(self):
        response, timing, outcome = self.call(
            "events", "GET", f"/v1/events?after_lsn={self.events_cursor}&limit=100"
        )
        if outcome == OK:
            self.events_cursor = response.body["next_after_lsn"]
        return timing, outcome


class Workload:
    """Base: sizes, seeding, scratch directory, result bookkeeping.

    Subclasses set ``name``, ``primary`` (the operation whose latency
    is reported), ``coverage_op`` (the root operation class whose
    child-span coverage a traced run reports), ``unit_ref_s``
    (reference seconds one unit of measured work takes at the commit
    that added the benchmark — it converts ``--seconds`` into a fixed
    unit count), ``min_units`` and ``SIZES``.
    """

    name = ""
    primary = ""
    coverage_op = ""
    unit_ref_s = 0.25
    min_units = 8
    SIZES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, workdir: str, units: int, size: str = "full") -> None:
        self.seed = seed
        self.units = units
        self.size = dict(self.SIZES[size])
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = os.path.join(workdir, f"{self.name}-{size}-{id(self):x}")
        self.tally = Tally()
        #: Set by the harness for a traced pass.
        self.tracer: Optional[Tracer] = None
        #: Exact counts a traced or untraced run reports beside spans.
        self.counts: Dict[str, float] = {}
        self.violations: List[str] = []

    @classmethod
    def units_for(cls, seconds: float) -> int:
        """The fixed amount of measured work ``--seconds`` stands for."""
        return max(cls.min_units, round(seconds / cls.unit_ref_s))

    def setup(self, pacer: Pacer) -> None:
        """Build and load to steady state, inside ``pacer`` segments."""
        raise NotImplementedError

    def measure(self, pacer: Pacer) -> None:
        """Run ``self.units`` units of measured work, one segment per
        unit, calling ``pacer.tick`` between operations."""
        raise NotImplementedError

    def audit(self) -> None:
        """Check the outputs; appends to ``self.violations``."""
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class _FleetWorkload(Workload):
    """Workloads that drive a two-shard fleet through the router."""

    fleet: fleet_mod.Fleet
    client: Client

    def build_fleet(self, pacer: Pacer, **orchestrator: Any) -> None:
        """Two durable shards behind the router, and their client."""
        with pacer.segment() as segment:
            os.makedirs(self.root, exist_ok=True)
            self.fleet = fleet_mod.Fleet(
                self.root, cells=self.size["cells"], orchestrator=orchestrator
            )
            segment.ops += 1
        self.client = Client(
            self.fleet, self.rng, self.tally,
            durations_s=self.size["durations_s"], tick=pacer.tick,
        )

    def preload(self, pacer: Pacer, count: int) -> None:
        """``count`` sync creates round-robin over tenants, in chunks,
        the clock nudged between chunks so installs activate."""
        tenants = self.fleet.tenants
        for done in range(0, count, PRELOAD_CHUNK):
            with pacer.segment() as segment:
                for index in range(done, min(count, done + PRELOAD_CHUNK)):
                    self.client.create(tenants[index % len(tenants)])
                    segment.ops += 1
                self.client.advance(5.0)

    def begin_measure(self, pacer: Pacer) -> None:
        self.client.tick = pacer.tick
        self.client.tracer = self.tracer
        self.client.measuring = True
        self._lsn_before = self.fleet.journal_lsn()

    def end_measure(self) -> None:
        self.counts["store.journal.records"] = self.fleet.journal_lsn() - self._lsn_before
        self.counts["live_slices_at_end"] = sum(len(refs) for refs in self.client.live)

    def audit(self) -> None:
        self.violations.extend(self.fleet.audit())
        for shard in range(fleet_mod.SHARDS):
            expected = {ref.slice_id for ref in self.client.live[shard]}
            lost = expected - self.fleet.live_ids(shard)
            if lost:
                self.violations.append(f"shard {shard}: {len(lost)} slices lost")

    def close(self) -> None:
        self.fleet.close()
        super().close()


class Churn(_FleetWorkload):
    """Steady-state lifecycle through the router over durable shards."""

    name = "churn"
    primary = "create"
    coverage_op = "create"
    unit_ref_s = 0.296
    #: Per hundred operations.
    MIX = (
        ("create", 30), ("delete", 28), ("rescale", 20),
        ("get", 14), ("list", 3), ("events", 5),
    )
    SIZES = {
        "full": {
            "cells": 57, "preload": 1_500, "settle_epochs": 20, "ops_per_unit": 200,
            "durations_s": (1_800.0, 43_200.0), "advance_s": 15.0,
        },
        "mini": {
            "cells": 2, "preload": 16, "settle_epochs": 1, "ops_per_unit": 100,
            "durations_s": (1_800.0, 43_200.0), "advance_s": 15.0,
        },
    }

    def setup(self, pacer: Pacer) -> None:
        self.build_fleet(pacer)
        self.preload(pacer, self.size["preload"])
        # Settle: monitoring epochs with the fleet loaded, so every
        # slice's forecaster has history before the measured phase.
        with pacer.segment() as segment:
            for _ in range(self.size["settle_epochs"]):
                self.client.advance(EPOCH_S)
                segment.ops += 1

    def measure(self, pacer: Pacer) -> None:
        client = self.client
        self.begin_measure(pacer)
        ops = {
            "create": client.create, "delete": client.delete,
            "rescale": client.rescale, "get": client.get,
            "list": client.list_page, "events": client.events_tail,
        }
        hundred = [kind for kind, share in self.MIX for _ in range(share)]
        for _ in range(self.units):
            kinds = hundred * (self.size["ops_per_unit"] // 100)
            self.rng.shuffle(kinds)
            with pacer.segment() as segment:
                for index, kind in enumerate(kinds, 1):
                    timing, outcome = ops[kind]()
                    if outcome != FAILED:
                        segment.ops += 1
                    if kind == "create" and outcome == OK:
                        segment.timings.append(timing)
                    if index % 50 == 0:
                        client.advance(self.size["advance_s"])
        self.end_measure()


class Burst(_FleetWorkload):
    """Oversubscribed broker windows decided by the batch policy and
    installed by the batch planner."""

    name = "burst"
    primary = "window"
    coverage_op = "advance"  # the window flush runs inside the clock advance
    unit_ref_s = 0.179
    SIZES_MBPS = (4.0, 6.0, 8.0, 10.0, 12.0)
    SIZES = {
        "full": {
            "cells": 41, "background": 800, "background_mbps": 3.5, "window": 64,
            "warm_windows": 12, "durations_s": (360_000.0, 360_000.0),
        },
        "mini": {
            "cells": 2, "background": 8, "background_mbps": 3.5, "window": 16,
            "warm_windows": 1, "durations_s": (360_000.0, 360_000.0),
        },
    }

    def setup(self, pacer: Pacer) -> None:
        # One monitoring epoch per broker window.  The planner keeps
        # its default batch size: with zero southbound latency its
        # completion chain recurses once per job of a batch, and a
        # 64-job batch overflows the interpreter stack and hangs
        # the window (README, "Known defects").
        self.build_fleet(pacer, monitoring_epoch_s=WINDOW_S)
        # Background slices are all one size, so the capacity left for
        # the windows (and with it admitted_share) does not ride on the
        # seed's draw of the background.
        self.client.SIZES_MBPS = (self.size["background_mbps"],)
        self.preload(pacer, self.size["background"])
        self.client.SIZES_MBPS = self.SIZES_MBPS
        # Steady state: the forecasters behind the overbooking policy
        # have seen a few windows come and go.
        for _ in range(self.size["warm_windows"]):
            with pacer.segment() as segment:
                self._teardown(self._window(segment))

    def _window(self, segment: Segment) -> List[Tuple[str, str]]:
        """Submit one window, flush it, poll every operation; returns
        the winners as (tenant, slice id)."""
        client = self.client
        submitted: List[Tuple[str, str]] = []
        winners: List[Tuple[str, str]] = []
        started = perf_counter()
        for _ in range(self.size["window"]):
            tenant = client.pick_tenant()
            response, _, outcome = client.call(
                "create_batch", "POST", "/v1/slices?mode=batch",
                client.slice_body(tenant, 3_600.0), tenant, ok=202,
            )
            if outcome == OK:
                submitted.append((tenant, response.body["operation_id"]))
        client.advance(WINDOW_S + 1.0)
        for tenant, op_id in submitted:
            response, _, outcome = client.call(
                "poll", "GET", f"/v1/operations/{op_id}", tenant=tenant
            )
            status = response.body.get("status")
            if status == "succeeded":
                winners.append((tenant, response.body["slice_id"]))
                client.count("decide", OK)
            elif status == "failed":  # the window refused it
                client.count("decide", REFUSED)
            else:
                client.count("decide", FAILED, f"{op_id} still {status}")
                continue
            segment.ops += 1
        segment.timings.append((started, perf_counter()))
        if client.measuring:
            self.tally.offered += len(submitted)
            self.tally.admitted += len(winners)
        return winners

    def _teardown(self, winners: List[Tuple[str, str]]) -> None:
        """Let the winners activate, then delete them."""
        client = self.client
        client.advance(DEPLOY_S + 2.0)
        for tenant, slice_id in winners:
            client.call("teardown", "DELETE", f"/v1/slices/{slice_id}", tenant=tenant)

    def measure(self, pacer: Pacer) -> None:
        self.begin_measure(pacer)
        for _ in range(self.units):
            with pacer.segment() as segment:
                winners = self._window(segment)
            self.client.tracer = None  # the teardown is unmeasured
            self._teardown(winners)
            self.client.tracer = self.tracer
        self.end_measure()


class Failover(_FleetWorkload):
    """Leader death, warm-standby promotion and recovery under load."""

    name = "failover"
    primary = "outage"
    coverage_op = "promote"
    unit_ref_s = 0.183
    #: Per hundred operations between two failovers.
    MIX = (("create", 10), ("delete", 20), ("rescale", 35), ("get", 35))
    #: Writes on the victim shard the standby has not tailed at the kill.
    UNSHIPPED = ("rescale", "create", "rescale", "rescale", "delete")
    SIZES = {
        # Slices outlive the run: a promotion restarts a re-adopted
        # slice's lifetime and a re-adopted slice cannot be deleted
        # (README, "Known defects"), so neither expiry nor DELETE
        # drains the fleet.  It grows by about six slices a cycle and
        # is sized to hold them all without refusing a create.
        "full": {
            "cells": 64, "preload": 600, "ops_per_cycle": 30, "warm_cycles": 12,
            "durations_s": (360_000.0, 360_000.0), "advance_s": 30.0,
        },
        "mini": {
            "cells": 4, "preload": 12, "ops_per_cycle": 20, "warm_cycles": 2,
            "durations_s": (360_000.0, 360_000.0), "advance_s": 30.0,
        },
    }

    def setup(self, pacer: Pacer) -> None:
        self.build_fleet(pacer)
        self.preload(pacer, self.size["preload"])
        with pacer.segment() as segment:
            self.standbys = [self.fleet.standby(k) for k in range(fleet_mod.SHARDS)]
            self._poll_standbys()
            segment.ops += 1
        self.cycle = 0
        self.recovery: Dict[str, int] = defaultdict(int)
        # Steady state: every shard is a promoted control plane holding
        # re-adopted slices, as it is for the rest of the run.
        for _ in range(self.size["warm_cycles"]):
            with pacer.segment() as segment:
                self._cycle(segment)
        self.recovery.clear()

    def _poll_standbys(self) -> None:
        with self.client.op_span("standby_poll"):
            for standby in self.standbys:
                standby.poll()
        self.client.tick()

    def _op(self, kind: str, shard: Optional[int] = None) -> str:
        """One operation of the mix; returns its outcome."""
        client = self.client
        if kind == "create":
            tenant = None if shard is None else self.rng.choice(self.tenants_of(shard))
            return client.create(tenant)[1]
        op = {"delete": client.delete, "rescale": client.rescale, "get": client.get}[kind]
        return op(shard)[1]

    def _cycle(self, segment: Segment) -> None:
        """Mixed load on both shards with the standbys tailing, a kill
        with writes un-shipped, the promotion, the first served create."""
        client = self.client
        victim = self.cycle % fleet_mod.SHARDS
        survivor = (victim + 1) % fleet_mod.SHARDS
        self.cycle += 1
        per_cycle = self.size["ops_per_cycle"]
        hundred = [kind for kind, share in self.MIX for _ in range(share)]
        self.rng.shuffle(hundred)
        for index, kind in enumerate(hundred[:per_cycle], 1):
            segment.ops += self._op(kind) != FAILED
            if index % 15 == 0 or index == per_cycle:
                client.advance(self.size["advance_s"])
                self._poll_standbys()
        for kind in self.UNSHIPPED:
            segment.ops += self._op(kind, victim) != FAILED
        standby = self.standbys[victim]
        self.recovery["lag_records_at_kill"] += standby.lag_records()
        killed = perf_counter()
        with client.op_span("kill"):
            self.fleet.kill(victim)
        client.tick()
        # The other shard serves through the outage.
        segment.ops += self._must_create(survivor, "survivor_create")
        with client.op_span("promote"):
            promotion = standby.promote(force=True)
            self.fleet.adopt(victim, promotion)
        client.tick()
        served = self._must_create(victim, "first_create")
        segment.ops += served
        if served:
            segment.timings.append((killed, perf_counter()))
        client.count("promote", OK)
        report = promotion.report
        self.recovery["failovers"] += 1
        self.recovery["records_replayed"] += report.replayed_records
        self.recovery["adopted"] += report.slices_adopted
        self.recovery["lost"] += report.slices_lost
        self.recovery["compensated"] += report.orphans_compensated
        self.account_losses(report.lost_slice_ids, victim)
        self.standbys[victim] = self.fleet.standby(victim)

    def account_losses(self, lost_slice_ids: List[str], shard: int) -> None:
        """A slice whose DELETE the program answered with an error is
        already a failed operation; any other loss is a violation."""
        for slice_id in lost_slice_ids:
            if slice_id not in self.client.failed_deletes:
                self.violations.append(f"{slice_id} lost in a promotion of shard {shard}")

    def measure(self, pacer: Pacer) -> None:
        self.begin_measure(pacer)
        for _ in range(self.units):
            with pacer.segment() as segment:
                self._cycle(segment)
        self.end_measure()
        for key, value in self.recovery.items():
            self.counts[f"recovery.{key}"] = value

    def tenants_of(self, shard: int) -> List[str]:
        return [t for t in self.fleet.tenants if self.fleet.shard_of[t] == shard]

    def _must_create(self, shard: int, op_class: str) -> bool:
        """A create that has to be admitted (201); a refusal here is a
        failed operation of its own class."""
        _, outcome = self.client.create(self.rng.choice(self.tenants_of(shard)))
        if outcome != OK:
            self.client.count(op_class, FAILED, f"create on shard {shard} was {outcome}")
        return outcome == OK


class Commuter(Workload):
    """Commuter tides with outages through the scenario engine:
    memory-only, no router, no store."""

    name = "commuter"
    primary = "modify_slice"
    coverage_op = "scenario"
    unit_ref_s = 0.512
    SIZES = {
        "full": {"cells": 12, "tenants": 4, "users": 600, "horizon_s": 2 * 3_600.0},
        "mini": {"cells": 4, "tenants": 2, "users": 80, "horizon_s": 3_600.0},
    }

    def __init__(self, seed: int, workdir: str, units: int, size: str = "full") -> None:
        super().__init__(seed, workdir, units, size)
        self.specs: List[Any] = []
        self.reports: List[Any] = []

    def setup(self, pacer: Pacer) -> None:
        """Every repetition's validated spec.  The rest of a scenario's
        set-up (testbed, orchestrator, mobility timeline, scheduling)
        happens at the head of its repetition, in a segment of its own
        marked as set-up."""
        with pacer.segment() as segment:
            self.specs = [
                fleet_mod.commuter_spec(
                    self.seed * 100 + index, self.size["cells"],
                    self.size["tenants"], self.size["users"], self.size["horizon_s"],
                )
                for index in range(self.units)
            ]
            segment.ops += 1

    def measure(self, pacer: Pacer) -> None:
        tracer = self.tracer
        for spec in self.specs:
            timings: List[Timing] = []
            build = pacer.start(setup=True)
            build.ops = 1
            with tracer.op("scenario") if tracer is not None else nullcontext():
                runner = fleet_mod.scenario_runner(spec)
                _instrument(runner, timings, pacer)
                report = runner.run()
            segment = pacer.stop()
            segment.ops = (
                report.submitted + report.rescales_attempted + report.repairs_performed
            )
            segment.timings = timings
            self.reports.append(report)
            self.tally.offered += report.submitted
            self.tally.admitted += report.admitted
            self.tally.counts["submit"][OK] += report.admitted
            self.tally.counts["submit"][REFUSED] += report.rejected
            self.tally.counts["rescale"][OK] += report.rescales_applied
            self.tally.counts["rescale"][REFUSED] += report.rescales_rejected
            self.tally.counts["repair"][OK] += report.repairs_performed
        self.counts["handovers"] = sum(r.handovers for r in self.reports)
        self.counts["outages"] = sum(r.outages for r in self.reports)
        self.counts["outages_healed"] = sum(r.outages_healed for r in self.reports)

    def audit(self) -> None:
        for report in self.reports:
            if report.lost_slices:
                self.violations.append(f"seed {report.seed}: lost {report.lost_slices}")
            if report.leaked_reservations:
                self.violations.append(
                    f"seed {report.seed}: leaked {report.leaked_reservations[:3]}"
                )
            if report.outages_healed != report.outages:
                self.violations.append(
                    f"seed {report.seed}: {report.outages - report.outages_healed} "
                    "outages never healed"
                )


def _instrument(runner: Any, timings: List[Timing], pacer: Pacer) -> None:
    """Wrappers on one runner's own instances.  ``modify_slice``
    records the instants of every applied rescale (a refusal returns
    in microseconds and is not goodput).  The simulator's start ends
    the repetition's set-up segment and opens its measured one, and
    the run to the horizon is taken an epoch at a time so the pacer's
    kernel can run in between."""
    modify = runner.orchestrator.modify_slice
    sim = runner.sim
    run_until = sim.run_until

    def timed_modify(slice_id, mbps):
        started = perf_counter()
        decision = modify(slice_id, mbps)
        if decision.admitted:
            timings.append((started, perf_counter()))
        return decision

    def paced_run_until(until):
        pacer.stop()
        pacer.start()
        while sim.now + EPOCH_S < until:
            run_until(sim.now + EPOCH_S)
            pacer.tick()
        run_until(until)

    runner.orchestrator.modify_slice = timed_modify
    sim.run_until = paced_run_until


WORKLOADS = {cls.name: cls for cls in (Churn, Burst, Failover, Commuter)}
