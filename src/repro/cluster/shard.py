"""Shard workers and the cluster builder.

A *shard* is one complete control plane — simulator, orchestrator,
service facade, broker, v1 API — owning a tenant partition (decided by
the :class:`~repro.cluster.ring.HashRing`) and a southbound partition
(its own testbed: in a real deployment each worker process fronts its
own region of the fleet).  Every shard journals to its own
``shard-<id>/`` namespace under the shared durability root and, when
durable, holds the shard's leader lease.

:class:`ControlPlaneCluster` is the builder + process manager the
tests, the failover drill and the benchmarks share: it wires N shards,
puts a :class:`~repro.cluster.router.ShardRouter` in front, and models
process death (``kill_leader``) with the store's SIGKILL semantics — a
closed journal drops every subsequent write, exactly what a killed
process would have never written.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.rest import RestApi
from repro.api.service import SliceService
from repro.api.v1 import build_v1_api
from repro.cluster.lease import Lease
from repro.cluster.ring import HashRing
from repro.cluster.router import ShardRouter
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.slices import PlmnPool
from repro.experiments.testbed import Testbed, TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.store.journal import JournalTail
from repro.store.store import ControlPlaneStore


class ClusterError(RuntimeError):
    """Raised on cluster misuse (bad shard id, dead-shard operations)."""


@dataclass
class ClusterConfig:
    """Shape of a sharded control plane.

    Attributes:
        shards: Number of orchestrator workers (= tenant partitions).
        durability_root: Root of the durable store; each shard journals
            under ``<root>/shard-<id>/``.  ``None`` = memory-only (no
            leases, no standbys, no durable event cursor).
        n_enbs_per_shard: RAN width of each shard's southbound.
        max_plmns_per_enb: Per-cell PLMN capacity of each testbed.
        plmn_pool_size: PLMN identity pool per shard.
        vnodes: Virtual nodes per shard on the hash ring.
        lease_timeout_s: Heartbeat staleness after which a standby
            declares the shard leader dead (wall clock).
        seed: Base random seed; shard *k* uses ``seed + k``.
        orchestrator: Extra :class:`OrchestratorConfig` overrides
            applied to every shard (e.g. ``{"monitoring_epoch_s": 30}``).
    """

    shards: int = 2
    durability_root: Optional[str] = None
    n_enbs_per_shard: int = 2
    max_plmns_per_enb: int = 12
    plmn_pool_size: int = 24
    vnodes: int = 64
    lease_timeout_s: float = 5.0
    seed: int = 7
    orchestrator: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ShardWorker:
    """One shard's live control plane (leader side)."""

    shard_id: int
    testbed: Testbed
    orchestrator: Orchestrator
    service: SliceService
    api: RestApi
    lease: Optional[Lease] = None
    dead: bool = False

    @property
    def sim(self) -> Simulator:
        return self.orchestrator.sim

    @property
    def store(self):
        return self.orchestrator.store

    def run_until(self, end_time: float) -> None:
        """Advance this shard's virtual clock."""
        self.orchestrator.sim.run_until(end_time)


class ControlPlaneCluster:
    """N tenant-sharded control planes behind one router.

    Args:
        config: The cluster shape.
        testbeds: Optional pre-built testbeds, one per shard — the test
            suites inject these to add chaos drivers before the
            orchestrators wire up.  Built from ``config`` when omitted.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        testbeds: Optional[List[Testbed]] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        if self.config.shards < 1:
            raise ClusterError(f"need >= 1 shard, got {self.config.shards}")
        if testbeds is not None and len(testbeds) != self.config.shards:
            raise ClusterError(
                f"got {len(testbeds)} testbeds for {self.config.shards} shards"
            )
        self.ring = HashRing(self.config.shards, vnodes=self.config.vnodes)
        self.shards: List[ShardWorker] = [
            self._build_shard(
                shard_id, testbeds[shard_id] if testbeds is not None else None
            )
            for shard_id in range(self.config.shards)
        ]
        self.router = ShardRouter(self.ring, self.shards)
        self._handoffs: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_testbed(self) -> Testbed:
        return build_testbed(
            TestbedConfig(
                n_enbs=self.config.n_enbs_per_shard,
                max_plmns_per_enb=self.config.max_plmns_per_enb,
                plmn_pool_size=self.config.plmn_pool_size,
            )
        )

    def _build_orchestrator(
        self,
        testbed: Testbed,
        shard_id: int,
        store: Optional[ControlPlaneStore] = None,
        journal_tail: Optional[JournalTail] = None,
    ) -> Orchestrator:
        """A fresh control-plane process over ``testbed``'s southbound
        (each call gets its own simulator + PLMN pool — exactly what a
        process restart loses); a promoting standby's ``journal_tail``
        spares the reopen what it already decoded."""
        config = OrchestratorConfig(
            durability_dir=self.config.durability_root,
            shard_id=shard_id,
            **self.config.orchestrator,
        )
        if journal_tail is not None:
            store = ControlPlaneStore(
                config.durability_dir, config.journal_fsync_every,
                config.checkpoint_every_records, shard_id, journal_tail,
            )
        return Orchestrator(
            sim=Simulator(),
            allocator=testbed.allocator,
            plmn_pool=PlmnPool(size=self.config.plmn_pool_size),
            config=config,
            streams=RandomStreams(seed=self.config.seed + shard_id),
            registry=testbed.registry,
            store=store,
        )

    def _build_shard(
        self, shard_id: int, testbed: Optional[Testbed]
    ) -> ShardWorker:
        testbed = testbed or self._build_testbed()
        orchestrator = self._build_orchestrator(testbed, shard_id)
        lease = None
        if orchestrator.store.enabled:
            lease = Lease(
                os.path.join(orchestrator.store.directory, Lease.FILENAME),
                owner=f"shard-{shard_id}-leader",
                timeout_s=self.config.lease_timeout_s,
            )
            lease.acquire(force=True)
            orchestrator.attach_lease(lease)
        service = SliceService(orchestrator)
        api = build_v1_api(service)
        orchestrator.start()
        return ShardWorker(
            shard_id=shard_id,
            testbed=testbed,
            orchestrator=orchestrator,
            service=service,
            api=api,
            lease=lease,
        )

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def shard(self, shard_id: int) -> ShardWorker:
        if not 0 <= shard_id < len(self.shards):
            raise ClusterError(f"unknown shard {shard_id}")
        return self.shards[shard_id]

    # ------------------------------------------------------------------
    # Cluster-wide clock + lifecycle
    # ------------------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        """Advance every live shard's virtual clock in lockstep."""
        for worker in self.shards:
            if not worker.dead:
                worker.run_until(end_time)

    def kill_leader(self, shard_id: int) -> ShardWorker:
        """SIGKILL the shard's leader mid-flight: its journal stops
        accepting writes (whatever in-flight work was never journaled
        is simply gone), its monitoring loop stops, and its lease is
        never heartbeat again — the standby's watch condition.  Nothing
        is fsynced: what it flushed stays readable, as the page cache
        keeps it, but a killed process makes none of it power-safe."""
        worker = self.shard(shard_id)
        worker.orchestrator.stop()
        worker.store.close(sync=False)
        worker.dead = True
        return worker

    def adopt_promotion(self, shard_id: int, promotion: "Any") -> ShardWorker:
        """Install a promoted standby (see :class:`~repro.cluster.
        standby.PromotionReport`) as the shard's new leader.  The
        router holds the :class:`ShardWorker` object, not its fields,
        so traffic flows to the new control plane immediately."""
        worker = self.shard(shard_id)
        worker.orchestrator = promotion.orchestrator
        worker.service = promotion.service
        worker.api = promotion.api
        worker.lease = promotion.lease
        worker.dead = False
        self._handoffs[shard_id], promotion.handoff = promotion.handoff, None
        promotion.orchestrator.start()
        return worker

    def standby_for(
        self, shard_id: int, lease_timeout_s: Optional[float] = None
    ) -> "Any":
        """A warm standby tailing ``shard_id``'s WAL, ready to promote; the
        first after an adopted promotion starts from the promoted fold."""
        from repro.cluster.standby import WarmStandby

        if not self.config.durability_root:
            raise ClusterError("standbys require a durability_root")
        worker = self.shard(shard_id)

        def rebuild(journal_tail: JournalTail) -> "tuple[Orchestrator, SliceService]":
            orchestrator = self._build_orchestrator(
                worker.testbed, shard_id, journal_tail=journal_tail
            )
            return orchestrator, SliceService(orchestrator)

        return WarmStandby(
            shard_id=shard_id,
            store_root=self.config.durability_root,
            rebuild=rebuild,
            lease_timeout_s=lease_timeout_s or self.config.lease_timeout_s,
            handoff=self._handoffs.pop(shard_id, None),
        )

    def close(self) -> None:
        """Clean shutdown of every shard."""
        for worker in self.shards:
            worker.orchestrator.stop()
            if not worker.dead:
                worker.store.close()
            worker.dead = True


__all__ = ["ClusterConfig", "ClusterError", "ControlPlaneCluster", "ShardWorker"]
