"""Tracer/span semantics: explicit context propagation, idempotent
close, bounded retention, slow-span ancestry."""

from __future__ import annotations


from repro.obs.span import Tracer


class TestSpanLifecycle:
    def test_root_span_starts_a_trace(self):
        tracer = Tracer()
        root = tracer.start_span("install.batch")
        assert root.context.parent_id is None
        assert root.context.trace_id == root.context.span_id
        assert root.status == "in_flight"
        root.finish()
        assert root.status == "ok"
        assert root.duration_ms is not None and root.duration_ms >= 0.0

    def test_child_inherits_trace_and_parent(self):
        tracer = Tracer()
        root = tracer.start_span("install.batch")
        child = tracer.start_span("install.job", parent=root.context)
        assert child.context.trace_id == root.context.trace_id
        assert child.context.parent_id == root.context.span_id
        assert child.context.span_id != root.context.span_id

    def test_finish_is_idempotent_first_close_wins(self):
        # A completion callback and a deadline timer may race to close
        # the same operation span; the first close must win.
        tracer = Tracer()
        span = tracer.start_span("driver.prepare")
        span.finish("error", error="deadline exceeded")
        span.finish("ok")
        assert span.status == "error"
        assert span.error == "deadline exceeded"
        assert tracer.spans_finished == 1

    def test_context_manager_marks_exceptions_as_error(self):
        tracer = Tracer()
        try:
            with tracer.start_span("journal") as span:
                raise ValueError("disk full")
        except ValueError:
            pass
        assert span.status == "error"
        assert "disk full" in span.error

    def test_trace_assembled_when_root_finishes(self):
        tracer = Tracer()
        root = tracer.start_span("install.batch")
        child = tracer.start_span("install.job", parent=root.context)
        grandchild = tracer.start_span(
            "driver.prepare", parent=child.context, label="ran"
        )
        grandchild.finish()
        child.finish()
        assert tracer.traces() == []  # root still open
        root.finish()
        (trace,) = tracer.traces()
        assert trace["root"] == "install.batch"
        assert trace["span_count"] == 3
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["install.job"]["parent_id"] == by_name["install.batch"]["span_id"]
        assert by_name["driver.prepare"]["parent_id"] == by_name["install.job"]["span_id"]
        assert by_name["driver.prepare"]["label"] == "ran"
        assert all(s["start_offset_ms"] >= 0.0 for s in trace["spans"])

    def test_ids_render_as_stable_strings(self):
        tracer = Tracer()
        root = tracer.start_span("a")
        root.finish()
        (trace,) = tracer.traces()
        assert trace["trace_id"].startswith("t")
        span = trace["spans"][0]
        assert span["span_id"].startswith("s")
        assert span["parent_id"] is None


class TestContextPropagationAcrossThreads:
    def test_children_created_and_finished_on_other_threads(self):
        # The planner pattern: the context is carried through job
        # state, and children are opened and closed by interleaved
        # continuations on the draining thread — in an order their
        # creation does not fix — and the assembled trace still has
        # exact parentage.
        tracer = Tracer()
        root = tracer.start_span("install.batch")
        children = [
            tracer.start_span("driver.commit", parent=root.context) for _ in range(8)
        ]
        for child in children[1::2] + children[::2]:
            child.finish()
        root.finish()
        (trace,) = tracer.traces()
        assert trace["span_count"] == 9
        root_id = trace["spans"][0]["span_id"]
        children = [s for s in trace["spans"] if s["name"] == "driver.commit"]
        assert len(children) == 8
        assert all(s["parent_id"] == root_id for s in children)
        assert tracer.active_span_count == 0


class TestBoundsAndRetention:
    def test_trace_retention_is_bounded_newest_first(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            tracer.start_span(f"batch-{i}").finish()
        traces = tracer.traces()
        assert [t["root"] for t in traces] == ["batch-3", "batch-2"]

    def test_traces_limit_parameter(self):
        tracer = Tracer(capacity=8)
        for i in range(5):
            tracer.start_span(f"b{i}").finish()
        assert len(tracer.traces(limit=2)) == 2

    def test_span_after_trace_assembled_is_dropped_not_retained(self):
        tracer = Tracer()
        root = tracer.start_span("install.batch")
        context = root.context
        root.finish()
        late = tracer.start_span("driver.release", parent=context)
        late.finish()
        assert tracer.spans_dropped == 1
        (trace,) = tracer.traces()
        assert trace["span_count"] == 1  # late child not retained

    def test_overfull_trace_drops_surplus_spans(self):
        tracer = Tracer(max_spans_per_trace=3)
        root = tracer.start_span("r")
        for _ in range(5):
            tracer.start_span("c", parent=root.context).finish()
        root.finish()
        (trace,) = tracer.traces()
        assert trace["span_count"] == 3
        assert tracer.spans_dropped == 3

    def test_active_trace_bound_evicts_oldest_root(self):
        tracer = Tracer(max_active_traces=2)
        roots = [tracer.start_span(f"r{i}") for i in range(3)]
        # r0's trace was evicted; finishing it retains nothing.
        roots[0].finish()
        assert tracer.traces() == []
        roots[2].finish()
        assert [t["root"] for t in tracer.traces()] == ["r2"]


class TestSlowSpans:
    def test_slow_span_recorded_with_ancestry(self):
        tracer = Tracer(slow_threshold_ms=0.0)  # everything is "slow"
        root = tracer.start_span("install.batch")
        child = tracer.start_span("install.job", parent=root.context)
        op = tracer.start_span("driver.prepare", parent=child.context, label="epc")
        op.finish()
        entries = tracer.slow_spans()
        assert entries and entries[0]["name"] == "driver.prepare"
        chain = [a["name"] for a in entries[0]["ancestry"]]
        assert chain == ["install.batch", "install.job"]
        root.finish()
        child.finish()

    def test_fast_span_not_recorded(self):
        tracer = Tracer(slow_threshold_ms=10_000.0)
        tracer.start_span("quick").finish()
        assert tracer.slow_spans() == []


class TestStatus:
    def test_counters_exact_at_quiescence(self):
        tracer = Tracer()
        root = tracer.start_span("r")
        tracer.start_span("c", parent=root.context).finish()
        root.finish()
        status = tracer.status()
        assert status["spans_started"] == 2
        assert status["spans_finished"] == 2
        assert status["spans_dropped"] == 0
        assert status["active_traces"] == 0
        assert status["retained_traces"] == 1
