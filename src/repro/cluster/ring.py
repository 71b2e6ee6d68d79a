"""Consistent-hash tenant → shard mapping.

The partitioning contract of the sharded control plane:

- **Total**: every tenant id maps to exactly one shard.
- **Deterministic across processes**: the hash is SHA-256 over the
  tenant id and the ring's virtual-node names — no process salt, no
  ``PYTHONHASHSEED`` dependence — so a router, a shard worker and a
  standby in three different processes all agree on the owner.
- **Stable under shard-count change**: shards claim points on a fixed
  2^32 ring via virtual nodes; a tenant belongs to the first vnode
  clockwise from its hash point.  Growing the cluster from N to N+1
  shards moves only the tenants whose arc the new shard's vnodes
  claim — about 1/(N+1) of them, every one moving *to* the new shard
  (the property suite pins both invariants down).

This is the classic Karger ring; the alternative (``hash(tenant) % N``)
would remap nearly every tenant on resize, which for us means
journaling every slice into a different shard's WAL — a full-cluster
migration instead of a bounded handoff.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Tuple

#: The ring is the full 32-bit hash space.
RING_BITS = 32
RING_SIZE = 1 << RING_BITS


def _point(key: str) -> int:
    """A stable position on the ring for ``key`` (SHA-256, truncated)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class HashRing:
    """A fixed consistent-hash ring over ``shard_count`` shards.

    Args:
        shard_count: Number of shards claiming the ring.
        vnodes: Virtual nodes per shard.  More vnodes = smoother load
            spread and a moved-fraction closer to the ideal 1/(N+1) on
            resize, at O(shard_count * vnodes) ring-build cost.  The
            default (64) keeps the spread within a few percent for the
            2-16 shard clusters the benchmarks run.
    """

    def __init__(self, shard_count: int, vnodes: int = 64) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.shard_count = int(shard_count)
        self.vnodes = int(vnodes)
        points: List[Tuple[int, int]] = []
        for shard_id in range(self.shard_count):
            for replica in range(self.vnodes):
                # The vnode name is part of the durable contract: two
                # processes building the ring for the same (count,
                # vnodes) must place identical points.
                points.append((_point(f"shard-{shard_id}#{replica}"), shard_id))
        # Ties (two vnodes hashing to one point) resolve to the lower
        # shard id — sort on the full tuple so the order is total.
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, tenant_id: str) -> int:
        """The shard owning ``tenant_id`` (first vnode clockwise)."""
        point = _point(f"tenant:{tenant_id}")
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap: past the last vnode belongs to the first
        return self._owners[index]


__all__ = ["HashRing", "RING_BITS", "RING_SIZE"]
