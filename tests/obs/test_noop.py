"""The disabled path: shared no-op singletons, surface parity with the
real observability object, zero retained state, and the one function
that reads the process-wide switch."""

from __future__ import annotations

import pytest

from repro.core.orchestrator import OrchestratorConfig
from repro.obs.registry import (
    NOOP_OBS,
    NOOP_SPAN,
    ControlPlaneObservability,
    NoopObservability,
    default_observability,
)
from tests.source_reading import enclosing_functions, source_of, src_lines_matching


class TestNoopSingletons:
    def test_span_returns_the_shared_noop_span(self):
        assert NOOP_OBS.span("install.batch") is NOOP_SPAN
        assert NOOP_OBS.span("x", label="ran", slice_id="s1") is NOOP_SPAN

    def test_noop_span_is_inert_and_reusable(self):
        span = NOOP_OBS.span("a")
        assert span.finish() is span
        assert span.finish("error", error="boom") is span
        with span:
            pass
        assert span.to_dict() == {}
        assert span.context is None

    def test_recording_methods_are_noops(self):
        NOOP_OBS.observe("journal.append", 1.23)
        NOOP_OBS.counter_add("events.emitted")
        NOOP_OBS.gauge_set("queue.stuck_releases", 4)
        assert NOOP_OBS.histograms() == {}
        assert NOOP_OBS.counters() == {}
        assert NOOP_OBS.gauges() == {}
        assert NOOP_OBS.stage_summary(["admission"]) == {}
        assert NOOP_OBS.merged_histogram("admission") is None

    def test_status_reports_disabled(self):
        assert NOOP_OBS.status() == {"enabled": False}
        assert NOOP_OBS.enabled is False

    def test_timed_is_a_working_context_manager(self):
        with NOOP_OBS.timed("broker.decide"):
            pass


class TestSurfaceParity:
    def test_noop_has_every_public_method_of_the_real_thing(self):
        real = {
            n
            for n in dir(ControlPlaneObservability)
            if not n.startswith("_")
        }
        noop = {n for n in dir(NoopObservability) if not n.startswith("_")}
        assert real <= noop, f"no-op is missing: {sorted(real - noop)}"


class TestDefaultObservability:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_ENABLED", raising=False)
        assert default_observability() is NOOP_OBS

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_ENABLED", "1")
        obs = default_observability()
        assert isinstance(obs, ControlPlaneObservability)
        assert obs.enabled is True

    def test_other_values_stay_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_ENABLED", "0")
        assert default_observability() is NOOP_OBS

    @pytest.mark.parametrize("value, enabled", [(None, False), ("1", True), ("0", False)])
    def test_the_orchestrator_config_reads_the_same_switch(self, monkeypatch, value, enabled):
        if value is None:
            monkeypatch.delenv("REPRO_OBS_ENABLED", raising=False)
        else:
            monkeypatch.setenv("REPRO_OBS_ENABLED", value)
        assert OrchestratorConfig().observability is enabled
        assert (default_observability() is not NOOP_OBS) is enabled

    def test_one_function_reads_the_switch_as_the_source_reads(self):
        assert [hit.split(":")[0] for hit in src_lines_matching(r'"REPRO_OBS_ENABLED"')] == [
            "obs/registry.py"
        ]
        assert enclosing_functions(source_of("obs/registry.py"), r'"REPRO_OBS_ENABLED"') == [
            "enabled_by_env"
        ]
