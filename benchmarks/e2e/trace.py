"""Per-layer tracing from outside the program.

The span table below maps a layer name to the public callables that
are that layer's boundary.  A traced run wraps each of them, at run
time and only for the traced pass, with a two-``perf_counter`` recorder;
nothing under ``src/`` is edited, and a target that no longer exists is
reported ``absent`` rather than failing the run — the ROADMAP plans to
move several of these.

A span records id, parent, name, label, the root operation it served,
its thread and its start and end instants; ``Tracer.resolve`` reads
them off a phase's reference clock.  A layer's *self* time is its span
minus the part of that interval its children cover (children on planner
threads overlap, so the cover is an interval union, clipped to the
parent).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: layer name -> boundary callables, ``module:qualname`` (several when
#: more than one implementation sits at the same boundary).
SPAN_TABLE: Dict[str, Sequence[str]] = {
    "cluster.router.dispatch": ("repro.cluster.router:ShardRouter.dispatch",),
    "api.dispatch": ("repro.api.rest:RestApi.dispatch",),
    "api.service.create": ("repro.api.service:SliceService.create_slice",),
    "api.service.create_batch": ("repro.api.service:SliceService.create_slice_batch",),
    "api.service.delete": ("repro.api.service:SliceService.delete_slice",),
    "api.service.modify": ("repro.api.service:SliceService.modify_slice",),
    "api.service.get": ("repro.api.service:SliceService.get_slice",),
    "api.service.list": ("repro.api.service:SliceService.list_slices",),
    "api.service.events": ("repro.api.service:SliceService.events_since",),
    "core.orchestrator.submit": ("repro.core.orchestrator:Orchestrator.submit",),
    "core.orchestrator.modify_slice": ("repro.core.orchestrator:Orchestrator.modify_slice",),
    "core.orchestrator.terminate": (
        "repro.core.orchestrator:Orchestrator.terminate_early",
        "repro.core.orchestrator:Orchestrator.cancel",
    ),
    "core.orchestrator.install_batch": (
        "repro.core.orchestrator:Orchestrator.install_admitted_batch",
    ),
    "core.admission.decide": (
        "repro.core.admission:FcfsPolicy.decide",
        "repro.core.admission:KnapsackPolicy.decide",
        "repro.core.admission:KnapsackPolicy.decide_batch",
    ),
    "core.overbooking.decide": (
        "repro.core.overbooking:OverbookingPolicy.decide_window",
        "repro.core.overbooking:NoOverbooking.decide",
        "repro.core.overbooking:FixedOverbooking.decide",
        "repro.core.overbooking:ForecastOverbooking.decide",
        "repro.core.overbooking:ForecastOverbooking.decide_window",
        "repro.core.overbooking:AdaptiveOverbooking.decide",
        "repro.core.overbooking:AdaptiveOverbooking.decide_window",
    ),
    "core.allocation.feasible": ("repro.core.allocation:MultiDomainAllocator.feasible",),
    "core.broker.flush": ("repro.core.broker:SliceBroker.flush",),
    "core.forecasting.fit": ("repro.core.forecasting:Forecaster.fit",),
    "sim.run_until": ("repro.sim.engine:Simulator.run_until",),
    "drivers.planner.install_batch": (
        "repro.drivers.planner:BatchInstallPlanner.install_batch",
    ),
    "drivers.prepare": ("repro.drivers.base:BaseDriver.prepare",),
    "drivers.commit": ("repro.drivers.base:BaseDriver.commit",),
    "drivers.release": ("repro.drivers.base:BaseDriver.release",),
    "drivers.rollback": ("repro.drivers.base:BaseDriver.rollback",),
    "ran.best_enb_for": ("repro.ran.controller:RanController.best_enb_for",),
    "ran.install_slice": ("repro.ran.controller:RanController.install_slice",),
    "ran.modify_slice": ("repro.ran.controller:RanController.modify_slice",),
    "ran.remove_slice": ("repro.ran.controller:RanController.remove_slice",),
    "transport.reserve_path": ("repro.transport.controller:TransportController.reserve_path",),
    "transport.modify_bandwidth": (
        "repro.transport.controller:TransportController.modify_bandwidth",
    ),
    "transport.repair_path": ("repro.transport.controller:TransportController.repair_path",),
    "transport.release_path": ("repro.transport.controller:TransportController.release_path",),
    "cloud.deploy": ("repro.cloud.controller:CloudController.deploy",),
    "cloud.teardown": ("repro.cloud.controller:CloudController.teardown",),
    "store.journal.append": ("repro.store.journal:Journal.append",),
    # Every fsync the store issues: journal group commit, compaction,
    # snapshot and lease writes all go through os.fsync.
    "store.journal.sync": ("os:fsync",),
    "store.checkpoint": ("repro.store.store:ControlPlaneStore.checkpoint",),
    "store.events_after": ("repro.store.store:ControlPlaneStore.events_after",),
    # Recovery folds snapshot + journal tail itself, not through the
    # store's ``replay``; both are the same boundary.
    "store.replay": (
        "repro.store.store:ControlPlaneStore.replay",
        "repro.store.codec:ReplayState.restore",
    ),
    "store.recovery.restore": ("repro.store.recovery:RecoveryManager.restore",),
    "cluster.standby.poll": ("repro.cluster.standby:WarmStandby.poll",),
    "cluster.standby.promote": ("repro.cluster.standby:WarmStandby.promote",),
    "scenarios.runner.init": ("repro.scenarios.runner:ScenarioRunner.__init__",),
    "scenarios.runner.run": ("repro.scenarios.runner:ScenarioRunner.run",),
}

#: Spans labelled by an attribute of the bound instance (per domain).
SPAN_LABELS: Dict[str, str] = {
    "drivers.prepare": "domain",
    "drivers.commit": "domain",
    "drivers.release": "domain",
    "drivers.rollback": "domain",
}

#: counter -> (callable whose ``len(result) + 1`` is added, the span it
#: must be called directly inside).  Journal bytes are the serialised
#: record lines written by ``append`` (compaction re-serialises too,
#: outside an append span, and is not counted).
BYTE_COUNTERS: Dict[str, Tuple[str, str]] = {
    "store.journal.bytes": (
        "repro.store.journal:JournalRecord.to_line",
        "store.journal.append",
    ),
}

#: Raw-span sample: spans of the first N root operations per class,
#: shrunk until the dump fits.
SAMPLE_OPS_PER_CLASS = 16
SAMPLE_MAX_BYTES = 4_500_000  # the whole detail file stays under 5 MB

#: (span_id, parent_id, name, label, op_id, thread, start, end)
Span = Tuple[int, int, str, str, int, int, float, float]


def resolve(target: str) -> Optional[Tuple[Any, str]]:
    """``(owner, attribute)`` of a ``module:qualname`` target, or
    ``None`` when the module or any step of the path is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for step in path:
        owner = getattr(owner, step, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attribute, None)) or attribute not in vars(owner):
        return None
    return owner, attribute


def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time (s) of every span: duration minus child-covered time."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, _label, _op, _thread, start, end in spans:
        if parent:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _parent, _name, _label, _op, _thread, start, end in spans
    }


def table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name (and ``name[label]``): calls, total and self time
    in ms, of resolved spans."""
    selfs = self_times(spans)
    rows: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in SPAN_TABLE
    }
    for sid, _parent, name, label, _op, _thread, start, end in spans:
        for key in (name, f"{name}[{label}]") if label else (name,):
            row = rows.setdefault(key, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1000.0
            row["self_ms"] += selfs[sid] * 1000.0
    return rows


def coverage(spans: Sequence[Span], op_class: str) -> float:
    """Share of the ``op_class`` root spans their children cover."""
    name = f"op.{op_class}"
    selfs = self_times(spans)
    total = own = 0.0
    for sid, _parent, span_name, *_rest, start, end in spans:
        if span_name == name:
            total += end - start
            own += selfs[sid]
    return 1.0 - own / total if total else 0.0


class Tracer:
    """Installs the span table and records spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.status: Dict[str, str] = {}
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._driver_thread = threading.get_ident()
        #: A thread's open spans, innermost last, as (span id, name).
        self._driver_stack: List[Tuple[int, str]] = []
        self._local.stack = self._driver_stack
        self._patched: List[Tuple[Any, str, Callable]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every resolvable target; record the rest as absent."""
        for name, targets in SPAN_TABLE.items():
            found = 0
            for target in targets:
                resolved = resolve(target)
                if resolved is None:
                    continue
                self._patch(*resolved, lambda fn: self._span_wrapper(
                    fn, name, SPAN_LABELS.get(name)
                ))
                found += 1
            self.status[name] = "ok" if found == len(targets) else (
                "partial" if found else "absent"
            )
        for counter, (target, inside) in BYTE_COUNTERS.items():
            resolved = resolve(target)
            if resolved is None or self.status.get(inside, "absent") == "absent":
                self.status[counter] = "absent"
                continue
            self._patch(*resolved, lambda fn: self._byte_wrapper(fn, counter, inside))
            self.status[counter] = "ok"

    def _patch(self, owner: Any, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attribute]
        if isinstance(original, (classmethod, staticmethod)):
            wrapper: Any = type(original)(wrap(original.__func__))
        else:
            wrapper = wrap(original)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _span_wrapper(self, fn: Callable, name: str, label_attr: Optional[str]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            elif stack is not tracer._driver_stack and tracer._driver_stack:
                # A planner/timer thread works for whatever the driving
                # thread is waiting in.
                parent = tracer._driver_stack[-1][0]
            else:
                parent = 0
            sid = next(tracer._ids)
            stack.append((sid, name))
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                label = str(getattr(args[0], label_attr, "")) if label_attr else ""
                tracer.spans.append((
                    sid, parent, name, label, tracer.op_id,
                    threading.get_ident(), started, ended,
                ))

        return wrapper

    def _byte_wrapper(self, fn: Callable, counter: str, inside: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][1] == inside:
                tracer.counters[counter] += len(result) + 1
            return result

        return wrapper

    @contextmanager
    def op(self, op_class: str) -> Iterator[None]:
        """Root span of one benchmark operation (driving thread)."""
        name = f"op.{op_class}"
        self.op_id += 1
        sid = next(self._ids)
        stack = self._driver_stack
        stack.append((sid, name))
        started = perf_counter()
        try:
            yield
        finally:
            ended = perf_counter()
            stack.pop()
            self.spans.append((
                sid, 0, name, "", self.op_id, self._driver_thread, started, ended,
            ))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def resolve(self, clock: Any, windows: Sequence[Tuple[float, float]]) -> List[Span]:
        """The spans that started inside one of ``windows`` (a phase's
        segments, as (start, end) instants), their start and end read
        off the phase's ``clock`` in reference seconds."""
        starts = [start for start, _ in windows]
        resolved: List[Span] = []
        for sid, parent, name, label, op_id, thread, start, end in self.spans:
            k = bisect_right(starts, start) - 1
            if k >= 0 and start <= windows[k][1]:
                resolved.append((
                    sid, parent, name, label, op_id, thread,
                    clock.ref(start), clock.ref(end),
                ))
        return resolved

    def sample(self) -> dict:
        """The bounded raw-span dump: every span of the first few root
        operations of each class, as JSON-ready dicts."""
        per_class = SAMPLE_OPS_PER_CLASS
        origin = min((s[6] for s in self.spans), default=0.0)
        while True:
            kept: Dict[str, List[int]] = defaultdict(list)
            for _sid, parent, name, _label, op_id, *_rest in self.spans:
                if parent == 0 and name.startswith("op.") and len(kept[name]) < per_class:
                    kept[name].append(op_id)
            wanted = {op_id for ids in kept.values() for op_id in ids}
            rows = [
                {
                    "id": sid, "parent": parent, "name": name, "label": label,
                    "op": op_id, "thread": thread,
                    "start_us": round((start - origin) * 1e6, 1),
                    "dur_us": round((end - start) * 1e6, 1),
                }
                for sid, parent, name, label, op_id, thread, start, end in self.spans
                if op_id in wanted
            ]
            dump = {"ops_per_class": per_class, "spans": rows}
            if per_class <= 1 or len(json.dumps(dump)) <= SAMPLE_MAX_BYTES:
                return dump
            per_class //= 2
