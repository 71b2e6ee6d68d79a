"""The benchmark's single point of contact with the program under test.

Everything the harness needs from ``repro`` goes through this module:
the cluster builder (``repro.cluster``), the scenario engine
(``repro.scenarios``), the testbed builder, and the v1 verbs reached
through ``ShardRouter.dispatch``.  A refactor of the program that keeps
those four surfaces leaves the benchmark untouched; one that moves them
is repaired here and nowhere else.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.cluster import ClusterConfig, ControlPlaneCluster
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.scenarios import ScenarioRunner, ScenarioSpec, build_named

#: One worker per vCPU of the reference host.
SHARDS = 2
TENANTS_PER_SHARD = 4
PLMNS_PER_CELL = 16
TENANT_HEADER = "x-tenant-id"


class Fleet:
    """A two-shard control plane behind its router, plus the handles
    the workloads need: per-shard clocks, standbys, the audit.

    Args:
        root: Durability root of the shards' stores.
        cells: eNBs per shard; edge/core DC nodes scale with it.
        orchestrator: ``OrchestratorConfig`` overrides for every shard.
    """

    def __init__(self, root: str, cells: int, orchestrator: Dict[str, Any]) -> None:
        pool = cells * PLMNS_PER_CELL
        testbeds = [
            build_testbed(
                TestbedConfig(
                    n_enbs=cells,
                    max_plmns_per_enb=PLMNS_PER_CELL,
                    plmn_pool_size=pool,
                    edge_nodes=cells,
                    core_nodes=2 * cells,
                )
            )
            for _ in range(SHARDS)
        ]
        self.cluster = ControlPlaneCluster(
            ClusterConfig(
                shards=SHARDS,
                durability_root=root,
                plmn_pool_size=pool,
                orchestrator=dict(orchestrator),
            ),
            testbeds=testbeds,
        )
        self.router = self.cluster.router
        self.tenants: List[str] = []
        self.shard_of: Dict[str, int] = {}
        owned = [0] * SHARDS
        index = 0
        while len(self.tenants) < SHARDS * TENANTS_PER_SHARD:
            tenant = f"tenant-{index}"
            shard = self.cluster.ring.shard_for(tenant)
            if owned[shard] < TENANTS_PER_SHARD:
                owned[shard] += 1
                self.tenants.append(tenant)
                self.shard_of[tenant] = shard
            index += 1
        #: Simulated seconds each shard has lived through (a promoted
        #: control plane restarts its clock; this keeps counting).
        self.elapsed = [0.0] * SHARDS

    # ------------------------------------------------------------------
    # v1 surface
    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        tenant: Optional[str] = None,
    ) -> Any:
        headers = {TENANT_HEADER: tenant} if tenant else None
        return self.router.dispatch(method, path, body, headers)

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def advance(self, seconds: float, after_shard: Callable[[], None]) -> None:
        """Advance every live shard's virtual clock by ``seconds``,
        calling ``after_shard`` once each has caught up."""
        for worker in self.cluster.shards:
            if not worker.dead:
                worker.run_until(worker.sim.now + seconds)
                self.elapsed[worker.shard_id] += seconds
                after_shard()

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def standby(self, shard: int) -> Any:
        return self.cluster.standby_for(shard)

    def kill(self, shard: int) -> None:
        self.cluster.kill_leader(shard)

    def adopt(self, shard: int, promotion: Any) -> None:
        self.cluster.adopt_promotion(shard, promotion)

    # ------------------------------------------------------------------
    # Counters and audit
    # ------------------------------------------------------------------
    def journal_lsn(self) -> int:
        """Records journaled so far, summed over shards (LSNs are
        monotonic across compactions and promotions)."""
        return sum(worker.store.last_lsn for worker in self.cluster.shards)

    def live_ids(self, shard: int) -> set:
        orchestrator = self.cluster.shards[shard].orchestrator
        return {s.slice_id for s in orchestrator.live_slices()}

    def audit(self) -> List[str]:
        """Resource-conservation invariants, per shard: every domain
        reservation belongs to a live slice and is COMMITTED, every
        live slice holds one in every domain, and the bandwidth the
        transport links hold equals what the live slices' paths sum to
        (``held == Σ COMMITTED``).  Returns the violations."""
        violations: List[str] = []
        for worker in self.cluster.shards:
            live = self.live_ids(worker.shard_id)
            tag = f"shard {worker.shard_id}"
            for driver in worker.testbed.registry.drivers():
                reservations = driver.list_reservations()
                holders = {r.slice_id for r in reservations}
                leaked = holders - live
                missing = live - holders
                dirty = [r for r in reservations if r.state.name != "COMMITTED"]
                if leaked:
                    violations.append(
                        f"{tag} {driver.domain}: {len(leaked)} leaked reservations"
                    )
                if missing:
                    violations.append(
                        f"{tag} {driver.domain}: {len(missing)} live slices hold nothing"
                    )
                if dirty:
                    violations.append(
                        f"{tag} {driver.domain}: {len(dirty)} non-COMMITTED reservations"
                    )
            transport = worker.testbed.transport
            held = sum(
                link.nominal_reserved_mbps for link in transport.topology.links()
            )
            committed = 0.0
            for slice_id in live:
                allocation = transport.allocation_of(slice_id)
                if allocation is not None:
                    committed += allocation.nominal_mbps * len(allocation.path.link_ids)
            if abs(held - committed) > 1e-6 * max(1.0, committed):
                violations.append(
                    f"{tag} transport: held {held:.3f} Mb/s != committed {committed:.3f}"
                )
        return violations

    def close(self) -> None:
        self.cluster.close()


def commuter_spec(
    seed: int, cells: int, tenants: int, users: int, horizon_s: float
) -> ScenarioSpec:
    """The built-in commuter-tides + failure pack, re-dimensioned: more
    cells, ``tenants`` tenants alternating the pack's eMBB and URLLC
    shapes, and the pack's four outages at the same horizon fractions."""
    base = build_named("commuter-failure", seed=seed).to_dict()
    scale = horizon_s / base["horizon_s"]
    shapes = base["tenants"]
    base.update(
        name=f"commuter-{cells}c-{tenants}t-{users}u",
        horizon_s=horizon_s,
        n_enbs=cells,
        tenants=[
            dict(shapes[i % len(shapes)], tenant_id=f"tenant-{i}")
            for i in range(tenants)
        ],
        mobility=dict(base["mobility"], n_users=users),
        failures=[
            dict(f, start_s=f["start_s"] * scale, duration_s=f["duration_s"] * scale)
            for f in base["failures"]
        ],
        testbed={
            "plmn_pool_size": cells * tenants + 8,
            "max_plmns_per_enb": max(6, tenants + 2),
            "edge_nodes": cells,
            "core_nodes": 2 * cells,
        },
    )
    return ScenarioSpec.from_dict(base)


def scenario_runner(spec: ScenarioSpec) -> ScenarioRunner:
    return ScenarioRunner(spec)
