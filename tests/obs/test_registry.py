"""The ControlPlaneObservability facade: span->histogram feeding,
timed blocks/locks, counters/gauges, and the cross-label summary."""

from __future__ import annotations


import pytest

from repro.obs.registry import ControlPlaneObservability


@pytest.fixture()
def obs() -> ControlPlaneObservability:
    return ControlPlaneObservability()


class TestSpanHistogramFeeding:
    def test_every_finished_span_feeds_its_named_histogram(self, obs):
        obs.span("admission", label="sync").finish()
        obs.span("admission", label="sync").finish()
        hist = obs.histogram("admission", "sync")
        assert hist.count == 2

    def test_labels_keep_separate_series(self, obs):
        obs.span("driver.prepare", label="ran").finish()
        obs.span("driver.prepare", label="epc").finish()
        assert obs.histogram("driver.prepare", "ran").count == 1
        assert obs.histogram("driver.prepare", "epc").count == 1

    def test_histogram_instances_are_cached(self, obs):
        assert obs.histogram("a") is obs.histogram("a")
        assert obs.histogram("a") is not obs.histogram("a", "label")


class TestTimedHelpers:
    def test_timed_block_observes_duration(self, obs):
        with obs.timed("broker.decide"):
            pass
        hist = obs.histogram("broker.decide")
        assert hist.count == 1
        assert hist.to_dict()["max_ms"] >= 0.0


class TestCountersAndGauges:
    def test_counter_accumulates(self, obs):
        obs.counter_add("events.emitted")
        obs.counter_add("events.emitted", 2.0)
        assert obs.counters()[("events.emitted", "")] == pytest.approx(3.0)

    def test_gauge_overwrites(self, obs):
        obs.gauge_set("queue.pending_installs", 5)
        obs.gauge_set("queue.pending_installs", 2)
        assert obs.gauges()[("queue.pending_installs", "")] == pytest.approx(2.0)


class TestSummaries:
    def test_merged_histogram_folds_labels(self, obs):
        obs.observe("driver.commit", 1.0, label="ran")
        obs.observe("driver.commit", 3.0, label="epc")
        merged = obs.merged_histogram("driver.commit")
        assert merged.count == 2
        assert merged.to_dict()["max_ms"] == pytest.approx(3.0)

    def test_stage_summary_skips_silent_stages(self, obs):
        obs.observe("admission", 0.5)
        summary = obs.stage_summary(["admission", "placement"])
        assert set(summary) == {"admission"}
        assert summary["admission"]["count"] == 1

    def test_status_counts_instruments(self, obs):
        obs.observe("a", 1.0)
        obs.counter_add("b")
        obs.gauge_set("c", 1)
        status = obs.status()
        assert status["enabled"] is True
        assert status["histograms"] == 1
        assert status["counters"] == 1
        assert status["gauges"] == 1
        assert status["tracer"]["spans_started"] == 0
