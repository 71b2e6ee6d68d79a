"""Property-based equivalence of the identity-indexed ``PlmnPool``.

The pool hands out the head of its free queue, re-queues a released
identity at the tail and lets recovery claim one out of the middle;
which PLMN a slice gets is part of every scenario and replay digest.
``ScanPool`` is the pool as it was — a free *list* popped at the front
and scanned per claim, an allocated map scanned per ``holder_of`` — and
is driven through the same random ``allocate`` / ``claim`` / ``release``
/ ``holder_of`` schedule: same results, same exceptions with the same
messages, same hand-out order after every step (read by draining a
copy through ``allocate``).
"""

from __future__ import annotations

import copy
import os
import random
from typing import Dict, List, Optional

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.slices import PLMN, PlmnPool, PlmnPoolExhausted, SliceError

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=60 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class ScanPool:
    """The pool as it was: a list popped at the front, scanned per claim."""

    def __init__(self, size: int) -> None:
        self.free: List[PLMN] = [PLMN("001", f"{1 + i:02d}") for i in range(size)]
        self.allocated: Dict[str, PLMN] = {}

    def allocate(self, slice_id: str) -> PLMN:
        if slice_id in self.allocated:
            raise SliceError(f"slice {slice_id} already holds PLMN")
        if not self.free:
            raise PlmnPoolExhausted(
                f"all {len(self.allocated)} PLMN identities in use"
            )
        plmn = self.free.pop(0)
        self.allocated[slice_id] = plmn
        return plmn

    def claim(self, slice_id: str, plmn_id: str) -> PLMN:
        held = self.allocated.get(slice_id)
        if held is not None:
            if held.plmn_id == plmn_id:
                return held
            raise SliceError(
                f"slice {slice_id} already holds PLMN {held.plmn_id}, not {plmn_id}"
            )
        holder = self.holder_of(plmn_id)
        if holder is not None:
            raise SliceError(f"PLMN {plmn_id} is held by slice {holder}")
        for index, plmn in enumerate(self.free):
            if plmn.plmn_id == plmn_id:
                self.allocated[slice_id] = self.free.pop(index)
                return self.allocated[slice_id]
        raise SliceError(f"PLMN {plmn_id} is not managed by this pool")

    def release(self, slice_id: str) -> None:
        plmn = self.allocated.pop(slice_id, None)
        if plmn is None:
            raise SliceError(f"slice {slice_id} holds no PLMN")
        self.free.append(plmn)

    def holder_of(self, plmn_id: str) -> Optional[str]:
        for slice_id, plmn in self.allocated.items():
            if plmn.plmn_id == plmn_id:
                return slice_id
        return None


def outcome(call, *args):
    """What a caller can observe of one call: its result or its error."""
    try:
        return ("ok", call(*args))
    except SliceError as exc:  # PlmnPoolExhausted is one
        return (type(exc).__name__, str(exc))


def hand_out_order(pool: PlmnPool) -> List[PLMN]:
    """What ``allocate`` would hand out from here until exhausted, read
    off a copy so the pool under test is left as it was."""
    pool = copy.deepcopy(pool)
    return [pool.allocate(f"drain-{i}") for i in range(pool.available)]


@SLOW
@given(seed=st.integers(0, 10_000), size=st.integers(1, 12), steps=st.integers(10, 200))
def test_pool_matches_the_list_scanning_model(seed, size, steps):
    rng = random.Random(seed)
    pool, model = PlmnPool(size=size), ScanPool(size)
    slices = [f"slice-{i}" for i in range(size + 3)]
    # Every managed identity, plus two the pool has never heard of.
    identities = [p.plmn_id for p in model.free] + ["00199", "99901"]
    for _ in range(steps):
        verb = rng.choice(("allocate", "allocate", "claim", "release", "holder_of"))
        if verb == "holder_of":
            args = (rng.choice(identities),)
        elif verb == "claim":
            args = (rng.choice(slices), rng.choice(identities))
        else:
            args = (rng.choice(slices),)
        served = pool._holders.get if verb == "holder_of" else getattr(pool, verb)
        assert outcome(served, *args) == outcome(
            getattr(model, verb), *args
        ), (verb, args)
        assert hand_out_order(pool) == model.free  # same hand-out order next
        assert pool.available == len(model.free)
        assert pool.capacity == size
        for plmn_id in identities:
            assert pool._holders.get(plmn_id) == model.holder_of(plmn_id)


#: Never an identity of any pool: wrong length, not decimal, not ASCII
#: digits, or a non-canonical MNC (three digits below 100).
MALFORMED = [
    "", "0010", "0010011", "00a01", "0010x", " 0101", "0101 ", "+0101", "00-01",
    "001_1", "００１０１", "٠٠١٠١",
    "001001", "001099",
]


@settings(max_examples=25 * EXAMPLE_MULTIPLIER, deadline=None)
@given(
    mcc=st.one_of(st.sampled_from([997, 998, 999]), st.integers(0, 999)),  # 999 wraps
    size=st.integers(1_001, 2_600),
    first_mnc=st.integers(0, 999),
    seed=st.integers(0, 10_000),
)
def test_claim_round_trips_every_identity_across_the_mcc_rollover(mcc, size, first_mnc, seed):
    """A pool past 1000 identities rolls into the next MCCs (999 wraps
    to 000): every identity it hands out is claimable, by its string
    alone, on a fresh pool of the same shape — the identity back, the
    rest of the hand-out order untouched — and nothing else is."""
    shape = dict(mcc=f"{mcc:03d}", size=size, first_mnc=first_mnc)
    issued = hand_out_order(PlmnPool(**shape))
    assert len({p.plmn_id for p in issued}) == size
    assert len({p.mcc for p in issued}) > 1  # the pool spans a rollover
    rng = random.Random(seed)
    claimed = set(rng.sample(range(size), rng.randint(1, size)))
    pool = PlmnPool(**shape)
    for index in rng.sample(sorted(claimed), len(claimed)):
        assert pool.claim(f"slice-{index}", issued[index].plmn_id) == issued[index]
    assert hand_out_order(pool) == [p for i, p in enumerate(issued) if i not in claimed]

    held = issued[min(claimed)].plmn_id
    beyond = hand_out_order(PlmnPool(**{**shape, "size": size + 1}))[size].plmn_id
    refused = [held, beyond, *MALFORMED]
    if first_mnc:
        before = PlmnPool(**{**shape, "first_mnc": first_mnc - 1}).allocate("x").plmn_id
        refused.append(before)
    for plmn_id in refused:
        try:
            pool.claim("intruder", plmn_id)
        except SliceError:
            continue
        raise AssertionError(f"claim of {plmn_id!r} was not refused")
