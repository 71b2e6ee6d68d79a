"""D12 — Crash-recovery cost: journal replay vs. snapshot+tail.

An event-sourced control plane pays for its durability at restart:
recovery folds the write-ahead journal back into state, so recovery
time grows with journal length — unless checkpoints bound it.  This
experiment measures both sides of that trade:

- **full replay** — recovery time folding the entire journal from
  genesis, swept over journal length (churn records);
- **snapshot + tail** — the same state restored from the latest
  checkpoint plus the (tiny) post-checkpoint tail.

Expected shape: full replay grows linearly in journal length;
snapshot restore is O(live state) and flat, so the speedup widens with
churn.  The asserted floor — **≥ 2× at 1 000 records** — is the
acceptance criterion of the durability subsystem (a broken compaction
path shows up as ~1×).

The synthetic churn mirrors the real record shape (enqueue → install →
activate → expire, each transition carrying the feed event it raised,
the install its driver trail), keeping a small live set at the end —
exactly the "long uptime, bounded fleet" regime where checkpointing
matters most.

Usage::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_d12_recovery.py -q

``D12_RECORDS`` shrinks the sweep for CI smoke runs.
"""

from __future__ import annotations

import os
import time

from repro.core.slices import SLA, ServiceType, SliceRequest
from repro.store.codec import ReplayState, request_to_dict
from repro.store.store import ControlPlaneStore

from benchmarks.conftest import emit_table

#: Journal lengths swept (records); the acceptance floor is asserted
#: at ASSERT_AT records.
SWEEP = (250, 500, 1_000, 2_000)
ASSERT_AT = int(os.environ.get("D12_RECORDS", "1000"))
FLOOR_SPEEDUP = 2.0

#: Live slices kept at the end of the churn (snapshot size).
LIVE_SLICES = 10
#: Journal records one install→expire churn cycle costs.
RECORDS_PER_CYCLE = 5
#: Journal records a slice still live at the end costs.
RECORDS_PER_LIVE = 2


def _request_payload(index: int) -> dict:
    return request_to_dict(
        SliceRequest(
            tenant_id=f"tenant-{index % 5}",
            service_type=ServiceType.EMBB,
            sla=SLA(throughput_mbps=10.0, max_latency_ms=50.0, duration_s=600.0),
            price=100.0,
            penalty_rate=1.0,
            request_id=f"req-{index:06d}",
        )
    )


def build_journal(directory: str, records: int) -> ControlPlaneStore:
    """A store whose journal holds ~``records`` churn records with
    ``LIVE_SLICES`` slices still live at the end."""
    store = ControlPlaneStore(directory, fsync_every=0, checkpoint_every=0)
    cycles = max(1, (records - LIVE_SLICES * RECORDS_PER_LIVE) // RECORDS_PER_CYCLE)
    seq = 0

    def event(kind: str, slice_id: str, at: float) -> dict:
        nonlocal seq
        seq += 1
        return {"seq": seq, "time": at, "type": kind, "slice_id": slice_id,
                "tenant_id": "tenant-0", "data": {}}

    def go_live(index: int, t: float) -> str:
        slice_id = f"slice-{index:06d}"
        reservations = {"ran": f"r{index}", "cloud": f"c{index}"}
        store.append(
            "slice.installed", time=t, request=_request_payload(index),
            slice_id=slice_id, plmn="00101", fraction=1.0, window=[t, t + 600.0],
            reservations=reservations, event=event("slice.admitted", slice_id, t),
            trail=[[kind, domain, rid] for kind in ("prepared", "committed")
                   for domain, rid in reservations.items()],
        )
        store.append(
            "slice.activated", time=t + 3.0, slice_id=slice_id,
            event=event("slice.activated", slice_id, t + 3.0),
        )
        return slice_id

    t = 0.0
    for index in range(cycles):
        t += 1.0
        payload = _request_payload(index)
        store.append("admission.enqueued", time=t, request=payload)
        store.append(
            "install.started", time=t, request=payload,
            slice_id=f"slice-{index:06d}", plmn="00101", fraction=1.0,
        )
        slice_id = go_live(index, t)
        store.append(
            "slice.expired", time=t + 603.0, slice_id=slice_id,
            event=event("slice.expired", slice_id, t + 603.0),
        )
    # The live tail: installed + activated, never expired.
    for index in range(cycles, cycles + LIVE_SLICES):
        t += 1.0
        go_live(index, t)
    return store


def time_full_replay(store: ControlPlaneStore) -> tuple:
    """(seconds, state) folding the entire journal from genesis."""
    start = time.perf_counter()
    records = store.journal.records()
    state = ReplayState.restore(None, records)
    return time.perf_counter() - start, state


def time_snapshot_replay(store: ControlPlaneStore) -> tuple:
    """(seconds, state) restoring from snapshot + post-checkpoint tail."""
    start = time.perf_counter()
    snapshot, tail = store.load()
    state = ReplayState.restore(snapshot, tail)
    return time.perf_counter() - start, state


def run_point(directory: str, records: int) -> dict:
    store = build_journal(directory, records)
    journal_records = len(store.journal.records())
    full_s, full_state = time_full_replay(store)
    # Checkpoint from the folded state (exactly what a live
    # orchestrator's checkpoint captures), then measure the restart.
    store.checkpoint(full_state.to_dict())
    snap_s, snap_state = time_snapshot_replay(store)
    # The two recovery paths must converge on identical state.
    assert snap_state.digest() == full_state.digest()
    store.close()
    return {
        "records": journal_records,
        "live": len(full_state.live),
        "full_ms": full_s * 1e3,
        "snapshot_ms": snap_s * 1e3,
        "speedup": full_s / max(snap_s, 1e-9),
    }


def test_d12_recovery_speedup(benchmark, tmp_path):
    """Recovery time vs. journal length; snapshot+tail restore must be
    ≥ 2× faster than full replay at 1k records."""
    sweep = sorted(set(list(SWEEP) + [ASSERT_AT]))
    results = [
        run_point(str(tmp_path / f"store-{n}"), n) for n in sweep
    ]
    emit_table(
        "D12",
        "crash recovery: full journal replay vs snapshot+tail restore",
        ["journal_records", "live_slices", "full_replay_ms", "snapshot_ms", "speedup"],
        [
            [
                r["records"],
                r["live"],
                round(r["full_ms"], 3),
                round(r["snapshot_ms"], 3),
                round(r["speedup"], 2),
            ]
            for r in results
        ],
    )
    at_floor = next(r for r in results if r["records"] >= ASSERT_AT)
    assert at_floor["speedup"] >= FLOOR_SPEEDUP, (
        f"snapshot restore only {at_floor['speedup']:.2f}x faster than full "
        f"replay at {at_floor['records']} records (floor {FLOOR_SPEEDUP}x)"
    )
    # Replay cost must actually grow with journal length (the thing
    # checkpointing exists to bound).
    assert results[-1]["full_ms"] > results[0]["full_ms"]
    # Timed kernel: one snapshot-path restore.
    store = build_journal(str(tmp_path / "store-kernel"), ASSERT_AT)
    _, state = time_full_replay(store)
    store.checkpoint(state.to_dict())
    benchmark.pedantic(
        lambda: time_snapshot_replay(store), rounds=3, iterations=1
    )
    store.close()
