"""A/B the end-to-end benchmark across two revisions, in alternating pairs.

    PYTHONPATH=src:. python benchmarks/ab.py --base 26db55c [--head REV] \
        [--workload failover] [--pairs 10] [--seeds 1,2] [--seconds 12] [--out VERDICT.json] \
        [--summary]

Each revision is exported with ``git archive`` into a temporary
directory (``--head`` defaults to the working tree as it is, uncommitted
changes included), so the repository's own metadata is left as it is.
Pair *i* runs ``benchmarks/e2e/run.py`` of both trees, one process at a
time, base first on even pairs and head first on odd ones, and reads the
JSON result line each prints.  The exported trees are removed when done.

The verdict (stdout, and ``--out``) holds per workload and seed, for
each end-to-end metric ``BENCHMARK.json`` names: both sides' median and
quartiles, every run's value, the change of the medians in %, the pairs
the head won in the metric's direction, and ``met`` — at least 10
pairs, at least 9 in 10 of them won, and the head's median beyond the
base's quartile on the better side.  Each side's ``attempted`` and
``failed`` are listed per run: a change that moves them changed the
work, not its speed.

Each run also carries the host slowdown the harness measured
(``host.slowdown_p50`` and ``host.slowdown_max``, read from
``run.py --detail``).  The runs of one side repeat one revision, so the
spread of their slowdown medians is an A/A spread; a pair whose two
runs' ``host.slowdown_p50`` differ by more than the larger side's
(interquartile) spread ran on a host that changed under it, and is
listed under ``flagged_pairs`` and printed — kept in the verdict, never
dropped silently.

With ``--summary``, one line per workload, seed and metric follows the
JSON verdict: both sides' median with its quartiles, the change in %,
the pairs won and ``met``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Pairs below this never meet a claim; at or above it, 9 in 10 must be won.
MIN_PAIRS, WIN_SHARE = 10, 0.9
#: The host slowdown each run records, read from its ``--detail`` file.
SLOWDOWNS = ("host.slowdown_p50", "host.slowdown_max")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, tree: str) -> None:
    """The files of ``rev`` (``git archive``), unpacked into ``tree``."""
    os.makedirs(tree)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` process of ``tree``: its last stdout line, parsed,
    with the host slowdown of its ``--detail`` file under ``host``."""
    with tempfile.TemporaryDirectory(prefix="ab-run-") as scratch:
        detail_path = os.path.join(scratch, "detail.json")
        command = [
            sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0", "--detail", detail_path,
        ]
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            raise RuntimeError(f"{tree}: {workload} seed {seed} exited {done.returncode}: "
                               f"{done.stderr.strip()[-2000:]}")
        with open(detail_path) as handle:
            info = json.load(handle)["info"]
    result = json.loads(lines[-1])
    result["host"] = {key: info[key] for key in SLOWDOWNS}
    return result


def spread(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def flag_pairs(base: List[float], head: List[float]) -> dict:
    """The A/A spread of two sides' per-run host slowdown medians (the
    larger interquartile range of a side) and each pair whose two runs
    differ by more than it."""
    aa_spread = max(spread(side)["q3"] - spread(side)["q1"] for side in (base, head))
    return {
        "aa_spread": aa_spread,
        "flagged_pairs": [
            {"pair": pair + 1, "base": b, "head": h, "difference": h - b}
            for pair, (b, h) in enumerate(zip(base, head)) if abs(h - b) > aa_spread
        ],
    }


def verdict(metric: dict, base: List[float], head: List[float]) -> dict:
    """One metric's comparison of paired runs, in its ``better`` direction."""
    lower = metric["better"] == "lower"
    sides = {"base": spread(base), "head": spread(head)}
    wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    base_median, head_median = sides["base"]["median"], sides["head"]["median"]
    beyond = head_median < sides["base"]["q1"] if lower else head_median > sides["base"]["q3"]
    pairs = len(base)
    return {
        **sides,
        "values": {"base": base, "head": head},  # pair i is the i-th of each
        "change_pct": (head_median - base_median) / base_median * 100.0 if base_median else None,
        "wins": f"{wins}/{pairs}",
        "better": metric["better"],
        "met": pairs >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * pairs) and beyond,
    }


def compare(trees: Dict[str, str], workload: str, seed: int, pairs: int, seconds: float,
            metrics: List[dict]) -> dict:
    """``pairs`` alternating pairs of runs of one workload and seed."""
    runs: Dict[str, List[dict]] = {"base": [], "head": []}
    for pair in range(pairs):
        for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
            runs[side].append(run_once(trees[side], workload, seed, seconds))
            print(f"  {workload} seed {seed} pair {pair + 1}/{pairs} {side}: "
                  f"cpu_ms_per_op {runs[side][-1]['metrics']['cpu_ms_per_op']['value']:.4f}",
                  file=sys.stderr)
    host = flag_pairs(*([run["host"]["host.slowdown_p50"] for run in runs[side]]
                        for side in ("base", "head")))
    for flagged in host["flagged_pairs"]:
        print(f"  {workload} seed {seed} pair {flagged['pair']} FLAGGED: host slowdown p50 "
              f"{flagged['base']:.3f} (base) vs {flagged['head']:.3f} (head), A/A spread "
              f"{host['aa_spread']:.3f}", file=sys.stderr)
    return {
        "runs": {side: [{**{key: run[key] for key in ("correct", "attempted", "failed")},
                         **run["host"]}
                        for run in side_runs] for side, side_runs in runs.items()},
        "host": host,
        "metrics": {
            metric["name"]: verdict(
                metric, *([run["metrics"][metric["name"]]["value"] for run in runs[side]]
                          for side in ("base", "head")),
            )
            for metric in metrics
        },
    }


def summary_rows(result: dict) -> List[str]:
    """The verdict's table: one row per workload, seed and metric."""
    rows = []
    for workload, seeds in result["workloads"].items():
        for seed, compared in seeds.items():
            for name, row in compared["metrics"].items():
                change = "n/a" if row["change_pct"] is None else f"{row['change_pct']:+.1f} %"
                sides = "  ".join(
                    f"{side} {row[side]['median']:.4g} [{row[side]['q1']:.4g}, "
                    f"{row[side]['q3']:.4g}]" for side in ("base", "head")
                )
                rows.append(f"{workload} seed {seed} {name}: {sides}  {change}  "
                            f"won {row['wins']}  {'met' if row['met'] else 'not met'}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--head", default=None, help="the change (default: the working tree)")
    parser.add_argument("--workload", action="append", help="repeatable (default: failover)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1", help="comma-separated")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--out", default=None, help="also write the verdict here")
    parser.add_argument("--summary", action="store_true",
                        help="print one row per workload, seed and metric after the verdict")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    scratch = tempfile.mkdtemp(prefix="ab-")
    trees = {"head": ROOT}
    try:
        for side, rev in (("base", args.base), ("head", args.head)):
            if rev is not None:
                trees[side] = os.path.join(scratch, side)
                export(rev, trees[side])
        result = {
            "base": git("rev-parse", args.base),
            "head": git("rev-parse", args.head) if args.head else "working tree",
            "seconds": args.seconds,
            "pairs": args.pairs,
            "workloads": {
                workload: {
                    str(seed): compare(trees, workload, seed, args.pairs, args.seconds, metrics)
                    for seed in (int(s) for s in args.seeds.split(","))
                }
                for workload in args.workload or ["failover"]
            },
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    if args.summary:
        print("\n".join(summary_rows(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
