"""Prometheus text exposition: format validity, the cp_/sim_ namespace
split, and the disabled-mode scrape."""

from __future__ import annotations

import re

import pytest

from repro.core.epoch import sim_gauges
from repro.core.orchestrator import Orchestrator
from repro.obs import export
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.registry import NOOP_OBS, ControlPlaneObservability
from repro.sim.engine import Simulator
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request

#: ``name{labels} value`` or ``name value`` — one sample per line.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.+eE]+(\+Inf)?$"
)


@pytest.fixture
def sim_world(testbed):
    """(slice id, gauges) gathered off a real orchestrator after one
    monitoring epoch with an ACTIVE slice."""
    orchestrator = Orchestrator(
        sim=Simulator(), allocator=testbed.allocator, plmn_pool=testbed.plmn_pool
    )
    orchestrator.start()
    request = make_request()
    orchestrator.submit(request, ConstantProfile(20.0, level=0.5))
    orchestrator.sim.run_until(61.0)
    (network_slice,) = orchestrator.active_slices()
    return network_slice.slice_id, sim_gauges(orchestrator)


def populated_obs() -> ControlPlaneObservability:
    obs = ControlPlaneObservability()
    with obs.span("install.batch") as root:
        obs.span("driver.prepare", parent=root.context, label="ran").finish()
    obs.observe("journal.append", 0.7)
    obs.counter_add("events.emitted", 3)
    obs.gauge_set("queue.stuck_releases", 2)
    return obs


class TestExposition:
    def test_every_line_is_a_comment_or_a_valid_sample(self, sim_world):
        _, gauges = sim_world
        text = render_prometheus(populated_obs(), gauges)
        assert text.endswith("\n")
        assert "cp_" in text and "sim_slice_" in text
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
            # The shape the router's relabelling understands, too.
            assert export._SAMPLE_RE.match(line), line

    def test_histogram_series_shape(self):
        text = render_prometheus(populated_obs())
        assert "# TYPE cp_journal_append_ms histogram" in text
        assert re.search(r'cp_journal_append_ms_bucket\{le="\+Inf"\} 1', text)
        assert "cp_journal_append_ms_count 1" in text
        assert "cp_journal_append_ms_sum" in text
        assert "cp_journal_append_ms_max" in text

    def test_span_fed_histograms_carry_their_label(self):
        text = render_prometheus(populated_obs())
        assert re.search(r'cp_driver_prepare_ms_count\{label="ran"\} 1', text)

    def test_counters_gauges_and_tracer_series(self):
        text = render_prometheus(populated_obs())
        assert "cp_events_emitted_total 3" in text
        assert "cp_queue_stuck_releases 2" in text
        assert "cp_tracer_spans_started_total 2" in text
        assert "cp_tracer_spans_finished_total 2" in text

    def test_type_declared_once_per_metric(self, sim_world):
        text = render_prometheus(populated_obs(), sim_world[1])
        declarations = [ln for ln in text.splitlines() if ln.startswith("# TYPE")]
        assert len(declarations) == len(set(declarations))

    def test_dotted_names_are_sanitized(self):
        text = render_prometheus(populated_obs())
        assert "." not in "".join(
            ln.split("{")[0].split(" ")[0]
            for ln in text.splitlines()
            if not ln.startswith("#")
        )


class TestSimNamespace:
    def test_sim_telemetry_reemitted_under_prefix(self, sim_world):
        slice_id, gauges = sim_world
        text = render_prometheus(NOOP_OBS, gauges)
        demand = export._fmt(gauges["slice.demand_mbps", slice_id])
        assert f'sim_slice_demand_mbps{{slice="{slice_id}"}} {demand}\n' in text
        assert text.count("# TYPE sim_slice_demand_mbps gauge\n") == 1
        assert "sim_ran_effective_utilization " in text  # unlabelled domain gauge

    def test_no_sim_metrics_means_no_sim_lines(self):
        text = render_prometheus(populated_obs(), None)
        assert "sim_" not in text


class TestDisabledScrape:
    def test_disabled_scrape_has_no_cp_lines_but_stays_valid(self, sim_world):
        text = render_prometheus(NOOP_OBS, sim_world[1])
        assert "cp_" not in text
        assert "sim_" in text
        assert text.endswith("\n")

    def test_content_type_is_the_prometheus_text_format(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE
