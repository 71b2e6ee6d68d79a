"""Unit tests of the benchmark harness itself (collected by tier-1).

They pin the arithmetic a reader of the numbers relies on: segment
correction, self time under nested and overlapping thread spans, the
tolerant span table, and that a seed fixes the operation sequence and
its outcome tally.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from . import harness, pacing, trace
from .workloads import WORKLOADS, Churn


def _pacer():
    return pacing.Pacer(pacing.RefKernel(3.0), fsyncs=())


def _clock(durations_ms, gap_s=0.1, nominal_ms=2.0, fsyncs=()):
    """A clock over kernel calls of the given durations with ``gap_s``
    of work between them, the first starting at 0; and the calls."""
    ticks, now = [], 0.0
    for duration_ms in durations_ms:
        ticks.append((now, now + duration_ms / 1000.0))
        now += duration_ms / 1000.0 + gap_s
    return pacing.RefClock(ticks, nominal_ms, fsyncs), ticks


# ----------------------------------------------------------------------
# The reference clock
# ----------------------------------------------------------------------
def test_work_is_divided_by_the_slowdown_of_the_kernel_calls_around_it():
    clock, ticks = _clock([4.0, 4.0, 4.0])  # twice the nominal 2 ms
    assert clock.slowdowns == pytest.approx([2.0, 2.0])
    first_gap = (ticks[0][1], ticks[1][0])
    assert clock.work(first_gap[1]) - clock.work(first_gap[0]) == pytest.approx(0.1)
    assert clock.ref(first_gap[1]) - clock.ref(first_gap[0]) == pytest.approx(0.05)
    # The same work on a host that is not slowed reads the same.
    fast, fast_ticks = _clock([2.0, 2.0, 2.0], gap_s=0.05)
    assert fast.ref(fast_ticks[1][0]) - fast.ref(fast_ticks[0][1]) == pytest.approx(0.05)


def test_time_inside_a_kernel_call_is_not_work():
    clock, ticks = _clock([2.0, 2.0, 2.0])
    start, end = ticks[0][1] + 0.02, ticks[2][0] - 0.03  # spans the middle call
    assert clock.work(end) - clock.work(start) == pytest.approx(0.2 - 0.05)
    inside = (ticks[1][0] + ticks[1][1]) / 2.0
    assert clock.work(inside) == pytest.approx(clock.work(ticks[1][0]))


def test_one_kernel_call_hit_by_an_interrupt_drops_out():
    clock, _ = _clock([2.0, 2.0, 20.0, 2.0, 2.0])
    assert clock.slowdowns == pytest.approx([1.0, 1.0, 1.0, 1.0])
    # ...while a host that stays slow is followed.
    clock, _ = _clock([2.0, 2.0, 2.0, 6.0, 6.0, 6.0, 6.0])
    assert clock.slowdowns[0] == pytest.approx(1.0)
    assert clock.slowdowns[-1] == pytest.approx(3.0)


def test_every_fsync_adds_its_nominal_cost_to_reference_time_only():
    clock, ticks = _clock([2.0, 2.0], fsyncs=[0.03, 0.05, 99.0])
    start, end = ticks[0][1], ticks[1][0]
    assert clock.scaled(end) - clock.scaled(start) == pytest.approx(0.1)
    assert clock.ref(end) - clock.ref(start) == pytest.approx(
        0.1 + 2 * pacing.FSYNC_REF_MS / 1000.0
    )


def test_instants_outside_the_kernel_calls_read_as_the_nearest_call():
    clock, ticks = _clock([2.0, 2.0])
    assert clock.work(-5.0) == 0.0
    assert clock.work(ticks[-1][1] + 5.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        pacing.RefClock([], 2.0, ())


# ----------------------------------------------------------------------
# The pacer
# ----------------------------------------------------------------------
def test_a_segment_has_a_kernel_call_at_each_edge_and_neighbours_share_one(monkeypatch):
    monkeypatch.setattr(pacing, "FRESH_S", 60.0)
    pacer = _pacer()
    with pacer.segment():
        pass
    with pacer.segment():
        pass
    assert len(pacer.ticks) == 3
    monkeypatch.setattr(pacing, "FRESH_S", -1.0)  # every call is stale
    with pacer.segment():
        pass
    assert len(pacer.ticks) == 5


def test_tick_runs_the_kernel_only_when_one_is_due(monkeypatch):
    pacer = _pacer()
    with pacer.segment():
        monkeypatch.setattr(pacing, "TICK_GAP_S", 60.0)
        pacer.tick()
        assert len(pacer.ticks) == 1
        monkeypatch.setattr(pacing, "TICK_GAP_S", 0.0)
        pacer.tick()
        assert len(pacer.ticks) == 2


def test_kernel_time_is_kept_out_of_the_segment_it_ran_in(monkeypatch):
    monkeypatch.setattr(pacing, "TICK_GAP_S", 0.0)
    pacer = _pacer()
    with pacer.segment() as segment:
        started = pacing.perf_counter()
        pacer.tick()
        segment.timings.append((started, pacing.perf_counter()))
        segment.ops = 1
    pacer.resolve()
    inside = pacer.ticks[1]
    assert segment.wall_s == pytest.approx(
        segment.ended - segment.started - (inside[1] - inside[0])
    )
    assert segment.samples[0] < (inside[1] - inside[0]) * 1000.0
    assert segment.cpu_s < inside[1] - inside[0]


# ----------------------------------------------------------------------
# Summary arithmetic
# ----------------------------------------------------------------------
def _resolved(wall_s, slowdown, cpu_s, ops, samples=()):
    return pacing.Segment(
        wall_s=wall_s, scaled_s=wall_s / slowdown, ref_s=wall_s / slowdown,
        cpu_s=cpu_s, ops=ops, samples=list(samples),
        ref_samples=[ms / slowdown for ms in samples],
    )


def test_the_same_work_on_a_slower_host_reads_the_same():
    fast = _resolved(1.0, 1.0, cpu_s=0.5, ops=100, samples=[2.0] * 50)
    slow = _resolved(2.0, 2.0, cpu_s=1.0, ops=100, samples=[4.0] * 50)
    summary = pacing.summarize([fast, slow], [1.0, 2.0])
    assert summary["ops_per_s"] == pytest.approx(100.0)
    assert summary["op_p50_ms"] == pytest.approx(2.0)
    assert summary["latency_ms"]["p99"] == pytest.approx(2.0)
    assert summary["cpu_ms_per_op"] == pytest.approx(5.0)
    # ...while the raw twins show the host.
    assert summary["raw.ops_per_s"] == pytest.approx(200.0 / 3.0)
    assert summary["raw.op_p50_ms"] == pytest.approx(3.0)
    assert summary["host.slowdown_max"] == pytest.approx(2.0)


def test_throughput_is_total_served_operations_over_total_reference_time():
    light = _resolved(1.0, 1.0, cpu_s=0.1, ops=300, samples=[1.0])
    heavy = _resolved(3.0, 1.0, cpu_s=0.3, ops=100, samples=[1.0])
    assert pacing.summarize([light, heavy], [1.0])["ops_per_s"] == pytest.approx(100.0)


def test_failed_only_segments_do_not_enter_the_totals():
    served = _resolved(1.0, 1.0, cpu_s=0.1, ops=10, samples=[1.0])
    empty = _resolved(9.0, 1.0, cpu_s=0.1, ops=0)
    assert pacing.summarize([served, empty], [1.0])["ops_per_s"] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        pacing.summarize([empty], [1.0])


def test_setup_time_is_the_sum_of_its_chunks():
    chunks = [_resolved(1.0, 2.0, 0.0, 1), _resolved(3.0, 1.5, 0.0, 1)]
    ref_s, wall_s = harness.setup_time(chunks)
    assert wall_s == pytest.approx(4.0)
    assert ref_s == pytest.approx(1.0 / 2.0 + 3.0 / 1.5)


def test_reference_kernel_is_deterministic_work():
    first, second = pacing.RefKernel(3.0), pacing.RefKernel(3.0)
    for kernel in (first, second):
        kernel()
        kernel()
    assert first._turn == second._turn == 2
    assert first._service.seen == second._service.seen
    assert [c.count for c in first._pool[:9]] == [c.count for c in second._pool[:9]]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    assert pacing.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    assert pacing.percentile([1.0, 2.0], 75) == pytest.approx(1.75)
    with pytest.raises(ValueError):
        pacing.percentile([], 50)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _span(sid, parent, start, end, name="n", thread=1):
    return (sid, parent, name, "", 1, thread, start, end)


def test_covered_is_an_interval_union_clipped_to_the_parent():
    assert trace.covered([(1, 5), (3, 8)], 0, 10) == pytest.approx(7)
    assert trace.covered([(1, 2), (4, 6)], 0, 10) == pytest.approx(3)
    assert trace.covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)
    assert trace.covered([(2, 9), (3, 4)], 0, 10) == pytest.approx(7)  # contained
    assert trace.covered([], 0, 10) == 0.0


def test_self_time_with_nested_and_overlapping_thread_spans():
    spans = [
        _span(1, 0, 0.0, 10.0),            # root on the driving thread
        _span(2, 1, 1.0, 5.0, thread=2),   # planner thread A
        _span(3, 1, 3.0, 8.0, thread=3),   # planner thread B, overlaps A
        _span(4, 2, 2.0, 4.0, thread=2),   # nested under A
        _span(5, 1, 9.0, 12.0, thread=4),  # straggler outliving its parent
    ]
    own = trace.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (7.0 + 1.0))  # union [1,8] + clipped [9,10]
    assert own[2] == pytest.approx(4.0 - 2.0)
    assert own[3] == pytest.approx(5.0)
    assert own[4] == pytest.approx(2.0)
    assert own[5] == pytest.approx(3.0)
    # Sequential nesting closes: self times add up to the root.
    chain = [_span(1, 0, 0, 10), _span(2, 1, 2, 9), _span(3, 2, 4, 5)]
    assert sum(trace.self_times(chain).values()) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Span table: declarative, tolerant, reversible
# ----------------------------------------------------------------------
def test_every_current_target_resolves():
    missing = [
        target for targets in trace.SPAN_TABLE.values() for target in targets
        if trace.resolve(target) is None
    ]
    assert missing == []


def test_a_target_that_no_longer_exists_is_absent_not_an_error(monkeypatch):
    monkeypatch.setitem(trace.SPAN_TABLE, "gone.module", ("repro.no_such_module:Thing.run",))
    monkeypatch.setitem(trace.SPAN_TABLE, "gone.method", ("repro.api.rest:RestApi.no_such",))
    monkeypatch.setitem(
        trace.SPAN_TABLE, "half.gone",
        ("repro.api.rest:RestApi.dispatch", "repro.api.rest:NoSuchClass.dispatch"),
    )
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert tracer.status["gone.module"] == "absent"
        assert tracer.status["gone.method"] == "absent"
        assert tracer.status["half.gone"] == "partial"
        assert tracer.status["api.dispatch"] == "ok"
        assert trace.table([])["gone.module"]["calls"] == 0
    finally:
        tracer.uninstall()


class _HalfSpeedClock:
    """A host that ran at slowdown 2 throughout."""

    @staticmethod
    def ref(instant):
        return instant / 2.0


def test_install_wraps_and_uninstall_restores():
    from repro.api.rest import RestApi
    from repro.store.codec import ReplayState

    original = RestApi.dispatch
    original_restore = vars(ReplayState)["restore"]
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert RestApi.dispatch is not original
        started = pacing.perf_counter()
        with tracer.op("probe"):
            response = RestApi().dispatch("GET", "/nowhere")
            # A classmethod target still binds its class.
            assert isinstance(ReplayState.restore(None, []), ReplayState)
        window = (started, pacing.perf_counter())
        assert response.status == 404
    finally:
        tracer.uninstall()
    assert RestApi.dispatch is original
    assert vars(ReplayState)["restore"] is original_restore
    spans = tracer.resolve(_HalfSpeedClock, [window])
    table = trace.table(spans)
    assert table["api.dispatch"]["calls"] == 1
    assert table["store.replay"]["calls"] == 1
    assert table["op.probe"]["calls"] == 1
    child = next(s for s in tracer.spans if s[2] == "api.dispatch")
    root = next(s for s in tracer.spans if s[2] == "op.probe")
    assert child[1] == root[0] and child[4] == root[4]  # parent and op id
    # Read off the clock: the window ran at slowdown 2.
    assert table["api.dispatch"]["total_ms"] == pytest.approx(
        (child[7] - child[6]) * 1000.0 / 2.0
    )
    assert trace.coverage(spans, "probe") > 0.0


def test_spans_are_tabulated_for_the_phase_whose_segments_they_started_in():
    tracer = trace.Tracer()
    marks = [pacing.perf_counter()]
    for name in ("build", "unmeasured", "serve"):
        with tracer.op(name):
            pass
        marks.append(pacing.perf_counter())
    setup = trace.table(tracer.resolve(_HalfSpeedClock, [(marks[0], marks[1])]))
    measure = trace.table(tracer.resolve(_HalfSpeedClock, [(marks[2], marks[3])]))
    assert "op.build" in setup and "op.serve" not in setup
    assert "op.serve" in measure and "op.build" not in measure
    assert "op.unmeasured" not in setup and "op.unmeasured" not in measure


def test_raw_span_sample_is_bounded(monkeypatch):
    tracer = trace.Tracer()
    for _ in range(200):
        with tracer.op("probe"):
            pass
    sample = tracer.sample()
    assert len(sample["spans"]) == trace.SAMPLE_OPS_PER_CLASS
    monkeypatch.setattr(trace, "SAMPLE_MAX_BYTES", 600)
    assert len(tracer.sample()["spans"]) < trace.SAMPLE_OPS_PER_CLASS


# ----------------------------------------------------------------------
# Seeded operation sequences
# ----------------------------------------------------------------------
def _mini_churn(tmp_path, seed, tag):
    workload = Churn(seed, str(tmp_path / tag), units=2, size="mini")
    sequence = []
    try:
        workload.setup(_pacer())
        call = workload.client.call

        def recording(op_class, method, path, *args, **kwargs):
            result = call(op_class, method, path, *args, **kwargs)
            # Slice ids come from a process-wide counter in the program,
            # so a second fleet in this process continues the numbering;
            # the benchmark proper runs one fleet per process.
            route = re.sub(r"slice-\d+", "{id}", path)
            sequence.append((op_class, method, route, result[0].status))
            return result

        workload.client.call = recording
        workload.measure(_pacer())
        workload.audit()
        return sequence, workload.tally.as_dict(), dict(workload.counts), workload.violations
    finally:
        workload.close()


def test_a_seed_fixes_the_operation_sequence_and_the_status_tally(tmp_path):
    first = _mini_churn(tmp_path, 7, "a")
    second = _mini_churn(tmp_path, 7, "b")
    assert first == second
    sequence, tally, counts, violations = first
    assert violations == []
    assert len(sequence) == 2 * Churn.SIZES["mini"]["ops_per_unit"]
    measured = sum(sum(row.values()) for name, row in tally.items() if name != "setup")
    assert measured == len(sequence)
    assert counts["store.journal.records"] > 0
    other, *_ = _mini_churn(tmp_path, 8, "c")
    assert other != sequence


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_clean_in_miniature(tmp_path, name):
    workload = WORKLOADS[name](3, str(tmp_path), units=2, size="mini")
    pacer = _pacer()
    try:
        workload.setup(_pacer())
        workload.measure(pacer)
        workload.audit()
    finally:
        workload.close()
    assert workload.violations == []
    failing = {op for op, row in workload.tally.as_dict().items() if row["failed"]}
    # Only a DELETE of a re-adopted slice fails (README, "Known defects").
    assert failing <= ({"delete", "setup"} if name == "failover" else set())
    clock = pacer.resolve()
    measured = [segment for segment in pacer.segments if not segment.setup]
    summary = pacing.summarize(measured, clock.slowdowns)
    assert summary["segments"] == 2 and summary["samples"] > 0
    assert workload.tally.offered > 0


def test_commuter_times_each_repetitions_build_as_set_up(tmp_path):
    workload = WORKLOADS["commuter"](3, str(tmp_path), units=2, size="mini")
    pacer = _pacer()
    workload.setup(_pacer())
    workload.measure(pacer)
    pacer.resolve()
    builds = [segment for segment in pacer.segments if segment.setup]
    runs = [segment for segment in pacer.segments if not segment.setup]
    assert len(builds) == len(runs) == 2
    for build, run in zip(builds, runs):
        assert 0.0 < build.wall_s < run.wall_s  # building is the small part
        assert build.ended <= run.started and build.ops == 1 and run.ops > 1


def test_failover_counts_failed_deletes_and_excuses_only_their_loss(tmp_path):
    workload = WORKLOADS["failover"](3, str(tmp_path), units=4, size="mini")
    try:
        workload.setup(_pacer())
        workload.measure(_pacer())
        workload.audit()
    finally:
        workload.close()
    # Deleting a slice a promotion re-adopted answers 500: counted as a
    # failed operation, and the audit of the end state still passes.
    failed = workload.tally.counts["delete"]["failed"]
    assert failed > 0 and workload.violations == []
    assert len(workload.client.failed_deletes) >= failed
    # A promotion that loses such a slice is the same failure; losing
    # any other slice is a violation.
    excused = next(iter(workload.client.failed_deletes))
    workload.account_losses([excused, "slice-never-deleted"], shard=0)
    assert workload.violations == ["slice-never-deleted lost in a promotion of shard 0"]


# ----------------------------------------------------------------------
# The contract file and the harness agree
# ----------------------------------------------------------------------
def test_benchmark_json_names_exactly_what_a_run_reports():
    with open(os.path.join(harness.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == (
        harness.per_layer_metrics()
    )
    assert benchmark["paths"] == ["benchmarks/e2e"]
    assert benchmark["command"][-1] == "benchmarks/e2e/run.py"
