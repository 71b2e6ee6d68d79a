"""Property-based invariants of the tenant → shard hash ring.

The ring is part of the cluster's *durable contract*: the router, the
standbys, and any future process must all place a tenant identically,
forever.  Three families of properties pin that down:

- **totality + determinism** — every tenant maps to exactly one valid
  shard, and two independently built rings (fresh processes) agree;
  placement is pure SHA-256, never ``hash()``, so ``PYTHONHASHSEED``
  cannot perturb it.
- **resize stability** — growing the ring from N to N+1 shards moves
  tenants *only to the new shard* (consistent hashing's defining
  property), and the moved fraction stays near the ideal 1/(N+1).
- **balance** — vnode smoothing keeps the per-shard load spread within
  a sane factor of ideal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import HashRing

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

FAST = settings(
    max_examples=50 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

tenant_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=32,
)


class TestTotalityAndDeterminism:
    @FAST
    @given(tenant=tenant_ids, shards=st.integers(min_value=1, max_value=16))
    def test_every_tenant_maps_to_exactly_one_valid_shard(self, tenant, shards):
        ring = HashRing(shards)
        shard = ring.shard_for(tenant)
        assert 0 <= shard < shards
        # Repeated lookups are stable.
        assert ring.shard_for(tenant) == shard

    @FAST
    @given(tenant=tenant_ids, shards=st.integers(min_value=1, max_value=16))
    def test_two_independent_rings_agree(self, tenant, shards):
        assert HashRing(shards).shard_for(tenant) == HashRing(
            shards
        ).shard_for(tenant)

    def test_placement_is_identical_across_processes(self):
        """The cross-*process* half of determinism: a subprocess with a
        different ``PYTHONHASHSEED`` places the same tenants on the
        same shards (the ring hashes with SHA-256, not ``hash()``)."""
        tenants = [f"tenant-{i}" for i in range(64)] + ["", "Δ-tenant", "a b"]
        local = HashRing(5)
        expected = [local.shard_for(t) for t in tenants]
        script = (
            "import json,sys\n"
            "from repro.cluster import HashRing\n"
            "ring = HashRing(5)\n"
            "tenants = json.loads(sys.argv[1])\n"
            "print(json.dumps([ring.shard_for(t) for t in tenants]))\n"
        )
        import json

        env = dict(os.environ, PYTHONHASHSEED="12345")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        output = subprocess.run(
            [sys.executable, "-c", script, json.dumps(tenants)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert json.loads(output) == expected


class TestResizeStability:
    @FAST
    @given(shards=st.integers(min_value=1, max_value=12))
    def test_growth_moves_tenants_only_to_the_new_shard(self, shards):
        before = HashRing(shards)
        after = HashRing(shards + 1)
        for i in range(200):
            tenant = f"tenant-{i}"
            old, new = before.shard_for(tenant), after.shard_for(tenant)
            # Consistent hashing: a tenant either stays put or lands on
            # the shard that just joined — never shuffles between
            # pre-existing shards.
            assert new == old or new == shards, (tenant, old, new)

    def test_moved_fraction_is_near_the_ring_ideal(self):
        """Growing N → N+1 should move ≈ 1/(N+1) of tenants; allow 2x
        slack for vnode placement variance."""
        population = [f"tenant-{i}" for i in range(2000)]
        for shards in (2, 4, 8):
            before = HashRing(shards)
            after = HashRing(shards + 1)
            moved = sum(
                1
                for t in population
                if before.shard_for(t) != after.shard_for(t)
            )
            ideal = len(population) / (shards + 1)
            assert moved <= 2.0 * ideal, (shards, moved, ideal)
            assert moved > 0  # the new shard actually takes load


class TestBalance:
    def test_vnodes_spread_load_within_sane_bounds(self):
        ring = HashRing(4, vnodes=64)
        counts = Counter(ring.shard_for(f"tenant-{i}") for i in range(4000))
        assert set(counts) == {0, 1, 2, 3}
        ideal = 4000 / 4
        for shard, count in counts.items():
            assert 0.4 * ideal <= count <= 1.8 * ideal, (shard, count)
