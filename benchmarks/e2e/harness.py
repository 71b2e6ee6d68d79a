"""Runs one workload under the protocol and shapes its result.

An untraced run measures the end-to-end metrics.  A traced run replays
the first quarter of the same work twice on identical fresh fleets —
wrappers off, then on — so the per-layer numbers and the tracing
overhead refer to the same operations.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .pacing import (
    FSYNC_REF_MS, NominalFsync, Pacer, RefClock, RefKernel, Segment, summarize,
)
from .trace import SPAN_TABLE, Tracer, coverage
from .trace import table as span_table
from .workloads import FAILED, OK, REFUSED, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results", "e2e")

#: Pinned nominal cost of ``pacing.RefKernel`` — the definition of a
#: reference second.  Changing it (or the kernel) rescales every time
#: metric; do so only in a PR that re-baselines the benchmark.
REF_KERNEL_MS = 3.0

#: A traced pass covers this share of the untraced run's units.
TRACE_SHARE = 0.25

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("admitted_share", "share"),
)

#: (name, unit) of the per-layer metrics beside the span table's.
COUNT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("store.journal.records_per_op", "count"),
    ("store.journal.bytes_per_op", "count"),
    ("store.checkpoints", "count"),
    ("drivers.ops_per_admitted", "count"),
    ("drivers.rollback_share", "share"),
    ("transport.paths_per_create", "count"),
    ("cluster.standby.lag_records_at_kill", "count"),
    ("store.recovery.records_replayed", "count"),
    ("store.recovery.adopted", "count"),
    ("store.recovery.lost", "count"),
    ("store.recovery.compensated", "count"),
    ("ops.ok", "count"),
    ("ops.refused", "count"),
    ("ops.failed", "count"),
    ("trace.coverage", "share"),
    ("trace.residual_ms_per_op", "ms"),
    ("trace.overhead_share", "share"),
    ("host.slowdown_p50", "share"),
    ("host.slowdown_p90", "share"),
    ("host.slowdown_max", "share"),
    ("raw.ops_per_s", "1/s"),
    ("raw.op_p50_ms", "ms"),
    ("raw.setup_s", "s"),
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    spans = [
        (f"{name}.{suffix}", unit)
        for name in SPAN_TABLE
        for suffix, unit in (("self_ms_per_op", "ms"), ("calls_per_op", "count"))
    ]
    return spans + list(COUNT_METRICS)


@dataclass
class Pass:
    """One set-up and one measured phase of a workload, timed."""

    workload: Workload
    setup_pacer: Pacer
    pacer: Pacer
    setup_clock: Optional[RefClock] = None
    clock: Optional[RefClock] = None

    @property
    def setup_segments(self) -> List[Segment]:
        """Set-up work: the set-up phase, and what a measured phase
        marked as set-up (``commuter`` builds inside its repetitions)."""
        return self.setup_pacer.segments + [s for s in self.pacer.segments if s.setup]

    @property
    def segments(self) -> List[Segment]:
        return [s for s in self.pacer.segments if not s.setup]

    def summary(self) -> Dict[str, Any]:
        return summarize(self.segments, self.clock.slowdowns)


def run_pass(
    workload: Workload, kernel: RefKernel, fsyncs: Sequence[float],
    tracer: Optional[Tracer] = None,
) -> Pass:
    """Set the workload up, run its measured phase, read both off
    their clocks."""
    workload.tracer = tracer
    timed = Pass(workload, Pacer(kernel, fsyncs), Pacer(kernel, fsyncs))
    gc.collect()
    workload.setup(timed.setup_pacer)
    gc.collect()
    workload.measure(timed.pacer)
    timed.setup_clock = timed.setup_pacer.resolve()
    timed.clock = timed.pacer.resolve()
    return timed


def setup_time(chunks: Sequence[Segment]) -> Tuple[float, float]:
    """(reference s, wall s) of a set-up: the sum over its chunks."""
    return sum(c.ref_s for c in chunks), sum(c.wall_s for c in chunks)


def _warm_up(
    cls: type, seed: int, workdir: str, kernel: RefKernel, fsyncs: Sequence[float]
) -> None:
    """Imports, lazy initialisation and code caches, paid before any
    timed phase: the workload itself in miniature, thrown away."""
    mini = cls(seed, workdir, units=2, size="mini")
    try:
        mini.setup(Pacer(kernel, fsyncs))
        mini.measure(Pacer(kernel, fsyncs))
    finally:
        mini.close()
    for _ in range(20):
        kernel()


def _finish(workload: Workload, detail: Dict[str, Any]) -> None:
    """Audit the end state and count.  ``correct`` is the audit's
    verdict; an operation the program answered with an error is a
    *failed operation* and is counted, whatever the audit says."""
    workload.audit()
    tally = workload.tally
    detail.update(
        correct=not workload.violations,
        attempted=tally.attempted + len(workload.violations),
        failed=tally.total(FAILED) + len(workload.violations),
        ops=tally.as_dict(),
        failures=list(tally.failures),
        violations=list(workload.violations),
        counts=dict(workload.counts),
        sizes=dict(workload.size),
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload; returns the detailed result (its
    ``metrics`` are the end-to-end set, or the per-layer set when
    ``trace``)."""
    cls = WORKLOADS[name]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{name}-", dir=RESULTS_DIR)
    kernel = RefKernel(REF_KERNEL_MS)
    fsync = NominalFsync()
    detail: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "ref_kernel_ms": REF_KERNEL_MS, "fsync_ref_ms": FSYNC_REF_MS,
    }
    fsync.install()
    try:
        _warm_up(cls, seed, scratch, kernel, fsync.instants)
        units = cls.units_for(seconds)
        if trace:
            _run_traced(cls, seed, scratch, kernel, fsync.instants, units, detail)
        else:
            _run_untraced(cls, seed, scratch, kernel, fsync.instants, units, detail)
    finally:
        fsync.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    return detail


def _segment_dump(segments: Sequence[Segment]) -> List[Dict[str, float]]:
    return [
        {"wall_s": s.wall_s, "ref_s": s.ref_s, "cpu_s": s.cpu_s, "ops": s.ops}
        for s in segments
    ]


def _run_untraced(
    cls: type, seed: int, scratch: str, kernel: RefKernel, fsyncs: Sequence[float],
    units: int, detail: Dict[str, Any],
) -> None:
    workload = cls(seed, scratch, units)
    try:
        timed = run_pass(workload, kernel, fsyncs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _finish(workload, detail)
    finally:
        workload.close()
    summary = timed.summary()
    setup_ref_s, setup_wall_s = setup_time(timed.setup_segments)
    tally = workload.tally
    values = {
        "setup_s": setup_ref_s,
        "ops_per_s": summary["ops_per_s"],
        "op_p50_ms": summary["op_p50_ms"],
        "cpu_ms_per_op": summary["cpu_ms_per_op"],
        "peak_rss_mb": peak_rss_mb,
        "admitted_share": tally.admitted / tally.offered if tally.offered else 0.0,
    }
    detail["metrics"] = {
        metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END
    }
    detail["info"] = {
        "units": units,
        "primary_op": cls.primary,
        "latency_ms": summary["latency_ms"],
        "samples": summary["samples"],
        "segments": summary["segments"],
        "measured_ref_s": summary["ref_s"],
        "measured_wall_s": summary["wall_s"],
        "kernel_calls": len(timed.pacer.ticks),
        "raw.setup_s": setup_wall_s,
        **{k: v for k, v in summary.items() if k.startswith(("raw.", "host."))},
    }
    # Per-segment values and the kernel's readings are kept: they are
    # what a noise post-mortem needs.
    detail["segments"] = _segment_dump(timed.segments)
    detail["setup_segments"] = _segment_dump(timed.setup_segments)
    for key, pacer in (("kernel_ms", timed.pacer), ("setup_kernel_ms", timed.setup_pacer)):
        detail[key] = [round((end - start) * 1000.0, 3) for start, end in pacer.ticks]


def _overhead(plain: Sequence[Segment], traced: Sequence[Segment]) -> float:
    """Tracing overhead on the same segments, in reference time."""
    ratios = [t.ref_s / p.ref_s for p, t in zip(plain, traced) if p.ref_s > 0]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def _windows(pacer: Pacer) -> List[Tuple[float, float]]:
    return [(s.started, s.ended) for s in pacer.segments]


def _run_traced(
    cls: type, seed: int, scratch: str, kernel: RefKernel, fsyncs: Sequence[float],
    units: int, detail: Dict[str, Any],
) -> None:
    units = max(cls.min_units // 2, round(units * TRACE_SHARE))
    plain_workload = cls(seed, scratch, units)
    try:
        plain = run_pass(plain_workload, kernel, fsyncs)
    finally:
        plain_workload.close()
    plain_summary = plain.summary()

    workload = cls(seed, scratch, units)
    tracer = Tracer()
    try:
        tracer.install()
        try:
            timed = run_pass(workload, kernel, fsyncs, tracer)
        finally:
            tracer.uninstall()
        _finish(workload, detail)
    finally:
        workload.close()

    served = sum(s.ops for s in timed.segments)
    tally = workload.tally
    spans = tracer.resolve(timed.clock, _windows(timed.pacer))
    table = span_table(spans)
    calls = {name: table[name]["calls"] for name in SPAN_TABLE}
    driver_ops = sum(
        calls[f"drivers.{kind}"] for kind in ("prepare", "commit", "release", "rollback")
    )
    creates = sum(
        sum(row.values()) for op_class, row in tally.counts.items()
        if op_class in ("create", "create_batch", "submit")
    )
    failovers = workload.counts.get("recovery.failovers", 0)
    roots = [row for name, row in table.items() if name.startswith("op.")]
    values: Dict[str, float] = {}
    for name in SPAN_TABLE:
        values[f"{name}.self_ms_per_op"] = table[name]["self_ms"] / served
        values[f"{name}.calls_per_op"] = table[name]["calls"] / served
    values.update({
        "store.journal.records_per_op":
            workload.counts.get("store.journal.records", 0) / served,
        "store.journal.bytes_per_op": tracer.counters["store.journal.bytes"] / served,
        "store.checkpoints": calls["store.checkpoint"],
        "drivers.ops_per_admitted": driver_ops / tally.admitted if tally.admitted else 0.0,
        "drivers.rollback_share":
            calls["drivers.rollback"] / calls["drivers.prepare"]
            if calls["drivers.prepare"] else 0.0,
        "transport.paths_per_create":
            calls["transport.reserve_path"] / creates if creates else 0.0,
        "cluster.standby.lag_records_at_kill":
            workload.counts.get("recovery.lag_records_at_kill", 0) / failovers
            if failovers else 0.0,
        **{
            f"store.recovery.{key}": workload.counts.get(f"recovery.{key}", 0)
            for key in ("records_replayed", "adopted", "lost", "compensated")
        },
        "ops.ok": tally.total(OK),
        "ops.refused": tally.total(REFUSED),
        "ops.failed": tally.total(FAILED),
        "trace.coverage": coverage(spans, cls.coverage_op),
        "trace.residual_ms_per_op": sum(row["self_ms"] for row in roots) / served,
        "trace.overhead_share": _overhead(plain.segments, timed.segments),
        **{k: v for k, v in plain_summary.items() if k.startswith(("host.", "raw."))},
        "raw.setup_s": setup_time(plain.setup_segments)[1],
    })
    detail["metrics"] = {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in per_layer_metrics()
    }
    detail["info"] = {"units": units, "served_ops": served, "primary_op": cls.primary}
    detail["span_status"] = dict(tracer.status)
    detail["span_table"] = {
        name: {
            "calls": row["calls"],
            "calls_per_op": row["calls"] / served,
            "total_ms_per_op": row["total_ms"] / served,
            "self_ms_per_op": row["self_ms"] / served,
        }
        for name, row in sorted(table.items())
    }
    # Where the traced pass's set-up went, per layer, in reference ms.
    setup_spans = tracer.resolve(timed.setup_clock, _windows(timed.setup_pacer))
    detail["setup_span_table"] = {
        name: {"calls": row["calls"], "total_ms": row["total_ms"], "self_ms": row["self_ms"]}
        for name, row in sorted(span_table(setup_spans).items()) if row["calls"]
    }
    detail["span_sample"] = tracer.sample()


def write_detail(detail: Dict[str, Any], path: str) -> None:
    """The detailed result (span table and bounded raw-span sample
    included), written once, at the end of the run."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        # Compact, so the file is the size the span sample was cut to.
        json.dump(detail, handle, sort_keys=True)
        handle.write("\n")


def contract_line(detail: Dict[str, Any]) -> str:
    """The result object ``BENCHMARK.json``'s command prints last."""
    return json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail["metrics"],
    })
