"""cProfile one D8 sweep point and dump the profile as a CI artifact.

Nightly runs this after the scale sweep so a flatness regression comes
with the profile that explains it: the ``.prof`` dump opens in
``snakeviz``/``pstats`` and the ``.txt`` is the top-of-stack summary
readable straight from the artifact listing.

Usage::

    PYTHONPATH=src:. python benchmarks/profile_d8_point.py \
        --enbs 32 --out-dir d8-profile

With ``--live-slices N`` the profiled work is instead a run of sync
creates on one durable shard that already holds N live slices (the
live-slice sweep's point, preloaded outside the profile): whatever the
request path does per live slice or per journal record shows up here,
where the eNB sweep cannot see it::

    PYTHONPATH=src:. python benchmarks/profile_d8_point.py \
        --live-slices 1600 --out-dir d8-profile
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
from pathlib import Path

from benchmarks.bench_d8_scalability import (
    HORIZON_S,
    LIVE_SLICE_SAMPLES,
    live_slice_shard,
    run_scale,
)

TOP_N = 40


def _dump(profiler: cProfile.Profile, out_dir: Path, stem: str, header: str) -> Path:
    """Write ``<stem>.prof`` + ``<stem>.txt``; returns the text path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    profiler.dump_stats(str(out_dir / f"{stem}.prof"))
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    for order in ("cumulative", "tottime"):
        buffer.write(f"=== top {TOP_N} by {order} ===\n")
        stats.sort_stats(order).print_stats(TOP_N)
    text_path = out_dir / f"{stem}.txt"
    text_path.write_text(header + buffer.getvalue())
    return text_path


def profile_point(n_enbs: int, horizon_s: float, seed: int, out_dir: Path) -> Path:
    """Profile one ``run_scale`` point; write ``.prof`` + ``.txt`` dumps.

    Returns:
        The path of the text summary.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    result, _elapsed = run_scale(n_enbs, seed=seed, horizon_s=horizon_s)
    profiler.disable()
    header = (
        f"D8 point profile: {n_enbs} eNBs, horizon {horizon_s:.0f}s, seed {seed}\n"
        f"requests={result.submitted} admitted={result.admitted}\n\n"
    )
    return _dump(profiler, out_dir, f"d8_{n_enbs}enbs", header)


def profile_live_slices(live_slices: int, out_dir: Path) -> Path:
    """Profile ``LIVE_SLICE_SAMPLES`` sync creates on a durable shard
    preloaded (unprofiled) with ``live_slices`` live slices.

    Returns:
        The path of the text summary.
    """
    profiler = cProfile.Profile()
    with live_slice_shard(live_slices) as create:
        profiler.enable()
        admitted = sum(create() == 201 for _ in range(LIVE_SLICE_SAMPLES))
        profiler.disable()
    header = (
        f"D8 live-slice profile: {LIVE_SLICE_SAMPLES} sync creates at "
        f"{live_slices} live slices, one durable shard\n"
        f"requests={LIVE_SLICE_SAMPLES} admitted={admitted}\n\n"
    )
    return _dump(profiler, out_dir, f"d8_{live_slices}live", header)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--enbs", type=int, default=32, help="fleet size to profile")
    parser.add_argument("--horizon-s", type=float, default=HORIZON_S)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--live-slices", type=int, default=None,
        help="profile sync creates at this many live slices instead of an eNB point",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("d8-profile"))
    args = parser.parse_args()
    if args.live_slices is not None:
        text_path = profile_live_slices(args.live_slices, args.out_dir)
    else:
        text_path = profile_point(args.enbs, args.horizon_s, args.seed, args.out_dir)
    print(f"profile written: {text_path}")


if __name__ == "__main__":
    main()
