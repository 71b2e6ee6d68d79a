"""Tests for the control dashboard rendering."""

from __future__ import annotations

import pytest

from repro.core.orchestrator import Orchestrator
from repro.dashboard.dashboard import Dashboard
from repro.dashboard.reports import format_table, gain_vs_penalty_report
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request


@pytest.fixture
def dashboard(testbed):
    sim = Simulator()
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=3),
    )
    orchestrator.start()
    request = make_request(tenant="mediclinic")
    orchestrator.submit(request, ConstantProfile(request.sla.throughput_mbps, level=0.5))
    sim.run_until(120.0)
    return Dashboard(orchestrator)


class TestFormatTable:
    def test_alignment_and_separator(self):
        table = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert set(lines[1].replace(" ", "")) == {"-"}

    def test_numeric_right_alignment(self):
        table = format_table(["n"], [[1.0], [100.0]])
        lines = table.splitlines()
        assert lines[2].endswith("1.00")
        assert lines[3].endswith("100.00")

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert len(table.splitlines()) == 2


class TestReports:
    def test_gain_report_contains_net(self):
        report = gain_vs_penalty_report(1.5, 100.0, 20.0, 0.03)
        assert "1.50x" in report
        assert "80.00" in report
        assert "3.00%" in report


class TestDashboard:
    def test_slice_table_lists_tenant(self, dashboard):
        assert "mediclinic" in dashboard.slice_table()

    def test_domain_panel_has_all_domains(self, dashboard):
        panel = dashboard.domain_panel()
        assert "ran" in panel and "transport" in panel and "cloud" in panel
        assert "#" in panel  # some load bar

    def test_headline_mentions_gain(self, dashboard):
        assert "multiplexing gain" in dashboard.headline()

    def test_render_combines_panels(self, dashboard):
        rendered = dashboard.render()
        assert "active slices: 1" in rendered
        assert "--- Domains ---" in rendered
        assert "--- Slices ---" in rendered
