"""Reference-paced time: the kernel, the reference clock, percentiles.

Wall-clock on this class of host (a small shared guest, no PMU) flips
between a fast and a slow state every few tens of milliseconds and
drifts by tens of percent over minutes, so no raw duration is gated.
Instead the harness owns one fixed pure-Python *reference kernel* and
runs it every ``TICK_GAP_S`` while the work runs.  How much slower than
its pinned nominal cost the kernel ran around an instant is the
*slowdown* there; ``RefClock`` integrates work time divided by it, so
every duration — a phase, one operation, one traced span — is read off
one clock in *reference* seconds: what the work would have taken on the
host state the nominal cost was pinned on.

The disk is handled the same way.  ``os.fsync`` on the reference host's
shared disk took 1.2 to 2.5 s in total for the same ``failover`` run,
so for the run's duration it is replaced by ``NominalFsync``: nothing
is forced to the device, and every call advances the reference clock by
the pinned ``FSYNC_REF_MS`` instead.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Percentiles of the primary operation's latency a run reports.
LATENCY_RUNGS = (50, 90, 95, 99)

#: ``Pacer.tick`` runs the kernel when this much wall time has passed
#: since it last ran: about the time the host stays in one state.
TICK_GAP_S = 0.04

#: A segment that opens within this of the last kernel call reuses it.
FRESH_S = 0.002

#: The slowdown between two kernel calls is read off this many calls
#: on each side (their median: one call hit by an interrupt drops out).
NEIGHBOURS = 2

#: Reference cost of one ``os.fsync``: the pinned device.
FSYNC_REF_MS = 0.5


class _Request:
    """What the reference kernel's service handles."""

    def __init__(self, index: int, mbps: float, tenant: str) -> None:
        self.index = index
        self.mbps = mbps
        self.tenant = tenant

    def cost(self) -> float:
        return self.index * self.mbps


class _Service:
    """A miniature of the control plane's call shape: validate, build
    an object, call a method on it, write a dict, return a dict."""

    def __init__(self) -> None:
        self.seen: Dict[int, float] = {}

    def validate(self, request: _Request) -> _Request:
        if request.index < 0:
            raise ValueError(request.index)
        return request

    def handle(self, index: int) -> dict:
        request = self.validate(_Request(index, index * 0.5, "tenant"))
        self.seen[index & 1023] = request.cost()
        return {"id": index, "cost": self.seen[index & 1023], "ok": True}


class _Cell:
    """Pool object of the reference kernel (instance dict + a dict)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.tags: Dict[int, int] = {}


class RefKernel:
    """The fixed unit of work every duration is expressed in.

    Two halves of about equal cost.  One is Python-level call and
    object churn (the shape of a request through the control plane)
    plus a ``json`` round trip (the shape of a journal append); the
    other is attribute/dict churn over a stride of a 20 000-object pool
    plus a keyed sort.  The mix is set by measurement, not taste: on
    the reference host the first half swings with the host's state
    about a quarter more than the second (p90/p10 of 1.89 against
    1.47-1.73 over 90 s), a kernel made of the second half (with
    ``json``) left corrected throughput *falling* 0.2-0.4 % per 1 % of
    host slowdown, and one made of the first half alone left it
    *rising* 0.1-0.3 %.  Deterministic and allocation-stable;
    ``nominal_ms`` is its pinned cost.
    """

    REQUESTS = 1_400
    DOCUMENT = 280
    POOL = 20_000
    STRIDE = 3
    KEYS = 6_000

    def __init__(self, nominal_ms: float) -> None:
        self.nominal_ms = float(nominal_ms)
        self._service = _Service()
        self._doc = [
            {
                "slice_id": f"slice-{i:06d}",
                "tenant_id": f"tenant-{i % 8}",
                "throughput_mbps": i * 0.5,
                "state": "active",
                "domains": ["ran", "transport", "cloud", "epc"],
            }
            for i in range(self.DOCUMENT)
        ]
        self._pool = [_Cell(i) for i in range(self.POOL)]
        self._keys = [((i * 7919) % 2003) / 7.0 for i in range(self.KEYS)]
        self._turn = 0

    def __call__(self) -> None:
        """Run the kernel once."""
        self._turn = turn = self._turn + 1
        handle = self._service.handle
        for index in range(self.REQUESTS):
            handle(index)
        json.loads(json.dumps(self._doc, sort_keys=True))
        slot = turn & 15
        for cell in self._pool[turn % self.STRIDE :: self.STRIDE]:
            cell.count += 1
            cell.tags[slot] = cell.count
        sorted(self._keys, key=lambda value: -value)


class NominalFsync:
    """Stands in for ``os.fsync`` while installed: records when it was
    called and returns at once."""

    def __init__(self) -> None:
        self.instants: List[float] = []
        self._original: Optional[Any] = None

    def __call__(self, fd: int) -> None:
        self.instants.append(perf_counter())

    def install(self) -> None:
        self._original = os.fsync
        os.fsync = self

    def uninstall(self) -> None:
        os.fsync = self._original


class RefClock:
    """Maps ``perf_counter`` instants to reference seconds.

    ``ticks`` are the (start, end) instants of the kernel calls of one
    phase, in order.  Between the end of one call and the start of the
    next the work ran at one slowdown: the median duration of the
    ``NEIGHBOURS`` calls on each side, over the nominal cost.  Time
    inside a kernel call is not work and does not count; every instant
    in ``fsyncs`` adds ``FSYNC_REF_MS``.  Instants before the first or
    after the last call read as that call's end.
    """

    def __init__(
        self,
        ticks: Sequence[Tuple[float, float]],
        nominal_ms: float,
        fsyncs: Sequence[float],
    ) -> None:
        if not ticks:
            raise ValueError("a reference clock needs at least one kernel call")
        self._starts = [start for start, _ in ticks]
        self._ends = [end for _, end in ticks]
        self._fsyncs = sorted(fsyncs)
        durations = [(end - start) * 1000.0 for start, end in ticks]
        #: Slowdown of the work interval after call ``k``.
        self.slowdowns = [
            statistics.median(durations[max(0, k + 1 - NEIGHBOURS) : k + 1 + NEIGHBOURS])
            / nominal_ms
            for k in range(len(ticks) - 1)
        ]
        #: Work and scaled work done when call ``k`` ended.
        self._work = [0.0]
        self._scaled = [0.0]
        for k, slowdown in enumerate(self.slowdowns):
            gap = self._starts[k + 1] - self._ends[k]
            self._work.append(self._work[-1] + gap)
            self._scaled.append(self._scaled[-1] + gap / slowdown)

    def _locate(self, instant: float) -> Tuple[int, float]:
        """(interval, work seconds into it) of an instant."""
        k = bisect_right(self._ends, instant) - 1
        if k < 0:
            return 0, 0.0
        if k >= len(self.slowdowns):
            return len(self.slowdowns), 0.0
        return k, min(instant, self._starts[k + 1]) - self._ends[k]

    def work(self, instant: float) -> float:
        """Wall seconds of work (kernel calls excluded) up to an instant."""
        k, into = self._locate(instant)
        return self._work[k] + into

    def scaled(self, instant: float) -> float:
        """Work up to an instant, each stretch divided by its slowdown."""
        k, into = self._locate(instant)
        return self._scaled[k] + (into / self.slowdowns[k] if into else 0.0)

    def ref(self, instant: float) -> float:
        """Reference seconds up to an instant: scaled work plus the
        nominal cost of the fsyncs so far."""
        return self.scaled(instant) + (
            bisect_right(self._fsyncs, instant) * FSYNC_REF_MS / 1000.0
        )


@dataclass
class Segment:
    """One stretch of timed work.

    The workload counts served operations in ``ops`` and appends the
    (start, end) instants of primary operations to ``timings``; the
    rest is filled in by ``Pacer.resolve`` once the phase is over.
    ``setup`` marks a stretch of a measured phase that is set-up work.
    """

    started: float = 0.0
    ended: float = 0.0
    cpu_s: float = 0.0
    ops: int = 0
    timings: List[Tuple[float, float]] = field(default_factory=list)
    setup: bool = False
    wall_s: float = 0.0
    scaled_s: float = 0.0
    ref_s: float = 0.0
    samples: List[float] = field(default_factory=list)  # raw ms
    ref_samples: List[float] = field(default_factory=list)  # reference ms

    @property
    def ref_cpu_s(self) -> float:
        """CPU seconds, scaled like the work they were spent in."""
        return self.cpu_s * self.scaled_s / self.wall_s if self.wall_s else 0.0


class Pacer:
    """Times one phase: segments of work, the kernel calls among them.

    ``tick`` is called by the workload between operations and runs the
    kernel when one is due; a segment's edges always have one.  Kernel
    time, wall and CPU, is kept out of every segment.  ``fsyncs`` is
    where ``NominalFsync`` records its calls.
    """

    def __init__(self, kernel: RefKernel, fsyncs: Sequence[float]) -> None:
        self.kernel = kernel
        self.fsyncs = fsyncs
        self.ticks: List[Tuple[float, float]] = []
        self.segments: List[Segment] = []
        self._kernel_cpu_s = 0.0
        self._open: Optional[Tuple[Segment, float]] = None

    def _run_kernel(self) -> None:
        cpu_started = process_time()
        gc.disable()
        started = perf_counter()
        self.kernel()
        self.ticks.append((started, perf_counter()))
        gc.enable()
        self._kernel_cpu_s += process_time() - cpu_started

    def tick(self) -> None:
        """Run the kernel if it has not run for ``TICK_GAP_S``."""
        if perf_counter() - self.ticks[-1][1] >= TICK_GAP_S:
            self._run_kernel()

    def start(self, setup: bool = False) -> Segment:
        if not self.ticks or perf_counter() - self.ticks[-1][1] > FRESH_S:
            self._run_kernel()
        segment = Segment(setup=setup)
        self._open = (segment, process_time() - self._kernel_cpu_s)
        segment.started = perf_counter()
        return segment

    def stop(self) -> Segment:
        ended = perf_counter()
        segment, cpu_mark = self._open
        segment.ended = ended
        segment.cpu_s = process_time() - self._kernel_cpu_s - cpu_mark
        self._open = None
        self._run_kernel()
        self.segments.append(segment)
        return segment

    @contextmanager
    def segment(self) -> Iterator[Segment]:
        yield self.start()
        self.stop()

    def resolve(self) -> RefClock:
        """Read every segment off the phase's clock; returns the clock."""
        clock = RefClock(self.ticks, self.kernel.nominal_ms, self.fsyncs)
        for segment in self.segments:
            segment.wall_s = clock.work(segment.ended) - clock.work(segment.started)
            segment.scaled_s = clock.scaled(segment.ended) - clock.scaled(segment.started)
            segment.ref_s = clock.ref(segment.ended) - clock.ref(segment.started)
            segment.samples = [
                (clock.work(end) - clock.work(start)) * 1000.0
                for start, end in segment.timings
            ]
            segment.ref_samples = [
                (clock.ref(end) - clock.ref(start)) * 1000.0
                for start, end in segment.timings
            ]
        return clock


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(segments: Sequence[Segment], slowdowns: Sequence[float]) -> Dict[str, Any]:
    """Reference figures of a measured phase from its resolved
    segments, with their raw wall-clock twins and the host slowdown
    seen while it ran (``slowdowns``: the phase clock's).

    Throughput and CPU cost are totals over the phase (served
    operations over the sum of the segments' reference seconds):
    segments differ in content — one holds a checkpoint, the next does
    not — so a median over them swings with which segment lands in the
    middle (3.2 % run to run on ``churn`` against 1.9 % for the total).
    Latency percentiles pool every sample.
    """
    live = [s for s in segments if s.ops > 0]
    if not live:
        raise ValueError("no segment served an operation")
    ops = sum(s.ops for s in live)
    ref_s = sum(s.ref_s for s in live)
    wall_s = sum(s.wall_s for s in live)
    corrected = [ms for s in live for ms in s.ref_samples]
    raw = [ms for s in live for ms in s.samples]
    return {
        "ops_per_s": ops / ref_s,
        "cpu_ms_per_op": sum(s.ref_cpu_s for s in live) * 1000.0 / ops,
        "op_p50_ms": percentile(corrected, 50),
        "latency_ms": {f"p{pct}": percentile(corrected, pct) for pct in LATENCY_RUNGS},
        "samples": len(corrected),
        "segments": len(live),
        "ref_s": ref_s,
        "wall_s": wall_s,
        "raw.ops_per_s": ops / wall_s,
        "raw.op_p50_ms": percentile(raw, 50),
        "host.slowdown_p50": percentile(slowdowns, 50),
        "host.slowdown_p90": percentile(slowdowns, 90),
        "host.slowdown_max": max(slowdowns),
    }
