"""Where one e2e workload's collector passes, journal bytes and fsyncs fall.

    PYTHONPATH=src:. python benchmarks/phase_probe.py --workload burst --seed 1 --seconds 12

Runs one workload of ``benchmarks/e2e`` as its harness does (the same
process state, warm-up, ``gc.collect()``, set-up phase,
``gc.collect()``, measured phase, a nominal fsync) and reports, per
phase:

- ``gc``: collector passes and their milliseconds per generation (a
  ``gc.callbacks`` hook);
- ``journal``: records and bytes per record type (every
  ``JournalRecord.to_line``, the line an append writes);
- ``fsyncs``: ``os.fsync`` calls per call site (``module:function``).

The phases are ``warmup`` (the harness's throw-away miniature run),
``setup`` (the set-up phase, and the segments the measured phase marks
as set-up: ``commuter`` builds each repetition's scenario in one),
``measured`` (the measured phase's other segments, the work its metrics
time), ``untimed`` (the measured phase's work between its segments:
``burst`` activates and tears down its windows there) and ``outside``
(the harness's ``gc.collect()`` calls).  The harness's own
``store.journal.bytes_per_op`` counts set-up appends too; ``measured``
here does not.  Nothing is timed but the collector.
The last stdout line is the JSON report; ``--size mini`` runs the
workloads' miniature.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
from collections import defaultdict
from time import perf_counter
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
for _path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.pacing import Pacer, RefKernel  # noqa: E402
from benchmarks.e2e.run import _bootstrap  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
from repro.store.journal import JournalRecord  # noqa: E402

PHASES = ("warmup", "setup", "measured", "untimed", "outside")


class Probe:
    """Counters keyed by the phase the process is in."""

    def __init__(self) -> None:
        self.phase = "outside"
        self.gc: Dict[str, Dict[int, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.journal: Dict[str, Dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        self.fsyncs: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        #: What ``NominalFsync.instants`` is to the harness's pacers.
        self.instants: list = []
        self._gc_started = 0.0

    def on_gc(self, stage: str, info: Dict[str, Any]) -> None:
        if stage == "start":
            self._gc_started = perf_counter()
            return
        row = self.gc[self.phase][info["generation"]]
        row[0] += 1
        row[1] += (perf_counter() - self._gc_started) * 1000.0

    def fsync(self, fd: int) -> None:
        caller = sys._getframe(1)
        site = f"{caller.f_globals.get('__name__')}:{caller.f_code.co_qualname}"
        self.fsyncs[self.phase][site] += 1
        self.instants.append(perf_counter())

    def report(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for phase in PHASES:
            journal = {kind: {"records": n, "bytes": b}
                       for kind, (n, b) in sorted(self.journal[phase].items())}
            out[phase] = {
                "gc": {str(gen): {"passes": n, "ms": round(ms, 3)}
                       for gen, (n, ms) in sorted(self.gc[phase].items())},
                "journal": journal,
                "journal_records": sum(row["records"] for row in journal.values()),
                "journal_bytes": sum(row["bytes"] for row in journal.values()),
                "fsyncs": dict(sorted(self.fsyncs[phase].items())),
            }
        return out


class PhasePacer(Pacer):
    """A harness pacer that tells the probe which phase a segment is."""

    def __init__(self, kernel: RefKernel, probe: Probe, setup_phase: bool) -> None:
        super().__init__(kernel, probe.instants)
        self.probe = probe
        #: The phase of this pacer's work between its segments.
        self.between = "setup" if setup_phase else "untimed"

    def start(self, setup: bool = False):
        segment = super().start(setup)
        self.probe.phase = "setup" if setup or self.between == "setup" else "measured"
        return segment

    def stop(self):
        self.probe.phase = self.between
        return super().stop()


def probe(
    workload: str, seed: int = 1, seconds: float = 12.0, size: str = "full",
    units: Optional[int] = None,
) -> Dict[str, Any]:
    """Run ``workload`` once and return its per-phase report."""
    cls = WORKLOADS[workload]
    units = units if units is not None else cls.units_for(seconds)
    counters = Probe()
    kernel = RefKernel(harness.REF_KERNEL_MS)
    to_line = JournalRecord.to_line

    def counted_line(record: JournalRecord) -> str:
        line = to_line(record)
        row = counters.journal[counters.phase][record.record_type]
        row[0] += 1
        row[1] += len(line) + 1
        return line

    plain_fsync = os.fsync
    scratch = tempfile.mkdtemp(prefix=f"phase-probe-{workload}-")
    JournalRecord.to_line = counted_line  # type: ignore[method-assign]
    os.fsync = counters.fsync
    gc.callbacks.append(counters.on_gc)
    try:
        counters.phase = "warmup"
        harness._warm_up(cls, seed, scratch, kernel, counters.instants)
        counters.phase = "outside"
        instance = cls(seed, scratch, units, size)
        try:
            gc.collect()
            counters.phase = "setup"
            instance.setup(PhasePacer(kernel, counters, setup_phase=True))
            counters.phase = "outside"
            gc.collect()
            counters.phase = "untimed"
            instance.measure(PhasePacer(kernel, counters, setup_phase=False))
        finally:
            counters.phase = "outside"
            instance.close()
    finally:
        gc.callbacks.remove(counters.on_gc)
        os.fsync = plain_fsync
        JournalRecord.to_line = to_line  # type: ignore[method-assign]
        shutil.rmtree(scratch, ignore_errors=True)
    return {"workload": workload, "seed": seed, "size": size, "units": units,
            **counters.report()}


def table(report: Dict[str, Any]) -> str:
    """The report as text: one block per phase."""
    lines = [f"{report['workload']} seed {report['seed']} {report['size']} "
             f"({report['units']} units)"]
    for phase in PHASES:
        row = report[phase]
        passes = ", ".join(f"gen{gen} {v['passes']} ({v['ms']:.1f} ms)"
                           for gen, v in row["gc"].items()) or "none"
        lines.append(f"[{phase}] gc: {passes}")
        lines.append(f"  journal: {row['journal_records']} records, "
                     f"{row['journal_bytes']} bytes")
        for kind, counts in row["journal"].items():
            lines.append(f"    {kind:<22} {counts['records']:>7} {counts['bytes']:>10}")
        for site, count in row["fsyncs"].items():
            lines.append(f"  fsync {site}: {count}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--size", default="full", choices=("full", "mini"))
    args = parser.parse_args(argv)
    _bootstrap()  # the benchmark's process state: one CPU, hash seed 0
    report = probe(args.workload, args.seed, args.seconds, args.size)
    print(table(report))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
