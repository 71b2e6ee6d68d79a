"""``python -m benchmarks.e2e`` — every workload, each in its own process.

    python -m benchmarks.e2e                  # all workloads, metric table
    python -m benchmarks.e2e --trace          # + per-layer table per workload
    python -m benchmarks.e2e --aa 5           # A/A: 5 full runs, same seed
    python -m benchmarks.e2e --record-history # append a line to history.jsonl

Exit status is non-zero when an operation of a measured stream failed,
an audit found a violation, or the ``--aa`` check is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results", "e2e")
HISTORY = os.path.join(HERE, "history.jsonl")

#: A/A: no time metric may sit further than this from its median.
AA_LIMIT = 0.10


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(
    workload: str, seed: int, seconds: float, trace: bool, tag: str = ""
) -> Dict[str, Any]:
    """One run in a fresh interpreter; returns its detailed result,
    which stays in ``RESULTS_DIR`` (``tag`` keeps runs of one seed apart)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    suffix = ("-trace" if trace else "") + tag
    detail_path = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}{suffix}.json")
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--detail", detail_path,
    ]
    completed = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: run exited with {completed.returncode}")
    with open(detail_path, encoding="utf-8") as handle:
        return json.load(handle)


def values_of(detail: Dict[str, Any]) -> Dict[str, float]:
    return {name: entry["value"] for name, entry in detail["metrics"].items()}


def print_run(detail: Dict[str, Any]) -> None:
    info = detail["info"]
    print(f"\n== {detail['workload']} (seed {detail['seed']}, {info['units']} units"
          f"{', traced' if detail['trace'] else ''})")
    print(f"   attempted {detail['attempted']}  failed {detail['failed']}  "
          f"correct {detail['correct']}")
    for op_class, row in detail["ops"].items():
        print(f"   ops.{op_class:<16} ok {row['ok']:>6}  refused {row['refused']:>6}  "
              f"failed {row['failed']:>4}")
    for line in detail["failures"]:
        print(f"   failed, e.g.: {line}")
    for line in detail["violations"]:
        print(f"   VIOLATION: {line}")
    if detail["trace"]:
        print_layers(detail)
        return
    print(f"   primary op: {info['primary_op']}, {info['samples']} samples; "
          f"{info['segments']} segments; host slowdown "
          f"p50 {info['host.slowdown_p50']:.2f} max {info['host.slowdown_max']:.2f}")
    for name, entry in detail["metrics"].items():
        print(f"   {name:<16} {entry['value']:>12.4f} {entry['unit']}")
    for rung, value in info["latency_ms"].items():
        if rung == "p50":
            continue
        beyond = info["samples"] * (100 - int(rung[1:])) / 100.0
        print(f"   op_{rung + '_ms':<13} {value:>12.4f} ms ({beyond:.0f} samples beyond, not gated)")
    for name in ("raw.ops_per_s", "raw.op_p50_ms", "raw.setup_s"):
        print(f"   {name:<16} {info[name]:>12.4f} (wall clock, not gated)")
    for name, value in detail["counts"].items():
        print(f"   {name:<32} {value}")


def print_layers(detail: Dict[str, Any]) -> None:
    status = detail["span_status"]
    print(f"   {'span':<36} {'calls/op':>10} {'self ms/op':>11} {'total ms/op':>12}")
    rows = sorted(
        detail["span_table"].items(), key=lambda item: -item[1]["self_ms_per_op"]
    )
    for name, row in rows:
        flag = "" if status.get(name.split("[")[0], "ok") == "ok" else (
            f"  ({status[name.split('[')[0]]})"
        )
        print(f"   {name:<36} {row['calls_per_op']:>10.4f} {row['self_ms_per_op']:>11.5f} "
              f"{row['total_ms_per_op']:>12.5f}{flag}")
    for name, entry in detail["metrics"].items():
        if not name.endswith(("self_ms_per_op", "calls_per_op")):
            print(f"   {name:<40} {entry['value']:>14.5f} {entry['unit']}")
    print(f"   {'set-up of the traced pass: span':<36} {'calls':>10} {'self ms':>11} "
          f"{'total ms':>12}")
    rows = sorted(detail["setup_span_table"].items(), key=lambda item: -item[1]["self_ms"])
    for name, row in rows:
        print(f"   {name:<36} {row['calls']:>10} {row['self_ms']:>11.2f} "
              f"{row['total_ms']:>12.2f}")


def aa_table(runs: Dict[str, List[Dict[str, float]]], bounds: Dict[str, float]) -> bool:
    """Prints min/median/max and the largest deviation from the median
    of every workload x metric; returns whether each is within a tenth
    and within the metric's bound."""
    ok = True
    print(f"\n{'workload':<10} {'metric':<16} {'min':>11} {'median':>11} {'max':>11} "
          f"{'max dev':>8} {'limit':>6}")
    for workload, samples in runs.items():
        for metric, bound in bounds.items():
            values = [sample[metric] for sample in samples]
            median = statistics.median(values)
            deviation = max(abs(v - median) for v in values) / median
            limit = min(AA_LIMIT, bound)
            verdict = ""
            if deviation > limit:
                verdict, ok = "OUT", False
            print(f"{workload:<10} {metric:<16} {min(values):>11.4f} {median:>11.4f} "
                  f"{max(values):>11.4f} {deviation:>8.4f} {limit:>6.3f} {verdict}")
    return ok


def exact_counts(detail: Dict[str, Any]) -> Dict[str, Any]:
    """What must repeat exactly between runs of one seed."""
    return {
        "ops": detail["ops"], "counts": detail["counts"],
        "attempted": detail["attempted"], "failed": detail["failed"],
        "admitted_share": detail["metrics"]["admitted_share"]["value"],
    }


def history_line(details: Dict[str, Dict[str, Any]], seed: int) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "seed": seed,
        "ref_kernel_ms": next(iter(details.values()))["ref_kernel_ms"],
        "fsync_ref_ms": next(iter(details.values()))["fsync_ref_ms"],
        "sizes": {w: dict(d["sizes"], units=d["info"]["units"]) for w, d in details.items()},
        "end_to_end": {w: values_of(d) for w, d in details.items()},
        "host.slowdown_p50": {w: d["info"]["host.slowdown_p50"] for w, d in details.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=0, metavar="N")
    parser.add_argument("--record-history", action="store_true")
    args = parser.parse_args(argv)
    chosen = [w for w in args.workloads.split(",") if w]
    unknown = set(chosen) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; known: {names}")

    if args.aa:
        runs: Dict[str, List[Dict[str, float]]] = {w: [] for w in chosen}
        exact: Dict[str, List[Dict[str, Any]]] = {w: [] for w in chosen}
        clean = True
        for index in range(args.aa):
            for workload in chosen:
                detail = run_once(
                    workload, args.seed, args.seconds, trace=False, tag=f"-aa{index + 1}"
                )
                clean &= detail["correct"]
                runs[workload].append(values_of(detail))
                exact[workload].append(exact_counts(detail))
                print(f"run {index + 1}/{args.aa} {workload}: "
                      + "  ".join(f"{k}={v:.4g}" for k, v in runs[workload][-1].items()),
                      flush=True)
        ok = aa_table(runs, bounds)
        for workload, images in exact.items():
            if any(image != images[0] for image in images[1:]):
                print(f"{workload}: exact counts differ between runs")
                ok = False
        print("\nA/A check " + ("passed" if ok and clean else "FAILED"))
        return 0 if ok and clean else 1

    details: Dict[str, Dict[str, Any]] = {}
    clean = True
    for workload in chosen:
        details[workload] = run_once(workload, args.seed, args.seconds, trace=False)
        print_run(details[workload])
        clean &= details[workload]["correct"]
        if args.trace:
            traced = run_once(workload, args.seed, args.seconds, trace=True)
            print_run(traced)
            clean &= traced["correct"]
    if args.record_history:
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(history_line(details, args.seed), sort_keys=True) + "\n")
        print(f"\nappended to {os.path.relpath(HISTORY, REPO_ROOT)}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
