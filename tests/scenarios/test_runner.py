"""Scenario runner end-to-end: packs run clean and score correctly."""

from __future__ import annotations

import pytest

from repro.core.admission import KnapsackPolicy
from repro.core.overbooking import ForecastOverbooking
from repro.scenarios import (
    ArrivalSpec,
    ScenarioRunner,
    ScenarioSpec,
    build_named,
    run_named,
    run_scenario,
)
from tests.source_reading import src_lines_matching


@pytest.fixture(scope="module")
def smoke_report():
    """One shared commuter-failure-smoke run (module-scoped: the run is
    the expensive part; every assertion here is read-only)."""
    return run_named("commuter-failure-smoke", seed=42)


class TestCommuterFailureSmoke:
    def test_zero_lost_and_leaked(self, smoke_report):
        assert smoke_report.lost_slices == []
        assert smoke_report.leaked_reservations == []
        assert smoke_report.clean

    def test_dc_outage_heals_by_restoration(self, smoke_report):
        dc = [o for o in smoke_report.outage_detail if o["kind"] == "dc"]
        assert len(dc) == 1 and dc[0]["healed"]
        # The DC attachment has no detour: convergence must span the
        # outage window, it cannot beat the restoration.
        assert dc[0]["convergence_s"] >= dc[0]["end_s"] - dc[0]["start_s"]

    def test_link_outage_bites_and_heals(self, smoke_report):
        assert smoke_report.outages == 2
        assert smoke_report.outages_healed == 2
        assert smoke_report.sla_violations > 0  # the DC window hurt

    def test_mobility_produced_handovers_and_rescales(self, smoke_report):
        assert smoke_report.handovers > 0
        assert smoke_report.rescales_applied > 0
        assert len(smoke_report.handover_latency_ms) == smoke_report.handovers
        assert smoke_report.handover_p95_ms >= smoke_report.handover_p50_ms >= 0.0

    def test_admission_yield_and_counts(self, smoke_report):
        assert smoke_report.submitted == 2  # 1 tenant x 2 cells
        assert smoke_report.admitted + smoke_report.rejected == 2
        assert 0.0 < smoke_report.admission_yield <= 1.0

    def test_report_serialises(self, smoke_report):
        payload = smoke_report.to_dict()
        assert payload["digest"] == smoke_report.digest
        assert payload["clean"] is True
        assert payload["outage_detail"]
        # Wall-clock fields are reported but never hashed.
        assert "wall_s" in payload
        assert "wall_s" not in smoke_report.deterministic_dict()
        assert "handover_p50_ms" not in smoke_report.deterministic_dict()


def test_vehicular_pack_runs_clean():
    report = run_named("vehicular-corridor", seed=42)
    assert report.clean
    assert report.outages_healed == report.outages == 1
    assert report.handovers > 0


def test_quiet_pack_has_no_outage_machinery():
    report = run_named("commuter-quiet", seed=1)
    assert report.clean
    assert report.outages == 0
    assert report.heal_convergence_s == []
    assert report.sla_violations == 0


def test_overrides_reach_the_spec():
    report = run_named("commuter-quiet", seed=1, horizon_s=900.0)
    assert report.horizon_s == 900.0
    with pytest.raises(Exception, match="unknown scenario fields"):
        run_named("commuter-quiet", seed=1, bogus=1)


def test_runner_rejects_invalid_spec():
    spec = build_named("commuter-quiet", seed=0)
    payload = spec.to_dict()
    payload["tenants"] = []
    with pytest.raises(Exception, match="at least one tenant"):
        ScenarioRunner(ScenarioSpec.from_dict(payload))


def test_timeline_records_every_event_kind(smoke_report):
    kinds = {entry[1] for entry in smoke_report.timeline}
    assert {"submit", "handover", "rescale", "failure.strike",
            "failure.restore"} <= kinds
    times = [entry[0] for entry in smoke_report.timeline]
    assert times == sorted(times)


# ----------------------------------------------------------------------
# Poisson arrivals: the load of the D-experiment tables
# ----------------------------------------------------------------------
def quick_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="quick",
        seed=11,
        horizon_s=1_800.0,
        n_enbs=2,
        arrivals=ArrivalSpec(rate_per_s=1 / 120.0),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def test_runner_produces_consistent_counts():
    report = run_scenario(quick_spec())
    assert report.submitted == report.admitted + report.rejected
    assert 0.0 <= report.admission_yield <= 1.0
    assert report.net_revenue == pytest.approx(
        report.gross_revenue - report.total_penalties
    )
    assert report.events_processed > 0


def test_deterministic_given_seed():
    a = run_scenario(quick_spec())
    b = run_scenario(quick_spec())
    assert a.row() == b.row()


def test_seed_changes_outcome():
    a = run_scenario(quick_spec(seed=1))
    b = run_scenario(quick_spec(seed=2))
    assert a.row() != b.row()


def test_overbooking_raises_gain():
    base = run_scenario(quick_spec(overbooking="none"))
    overbooked = run_scenario(quick_spec(overbooking="fixed:1.8"))
    assert overbooked.peak_multiplexing_gain >= base.peak_multiplexing_gain


def test_row_keys_stable():
    report = run_scenario(quick_spec())
    assert set(report.row()) == {
        "requests",
        "admitted",
        "acceptance",
        "gross",
        "penalties",
        "net",
        "viol_rate",
        "gain_mean",
        "gain_peak",
    }


def test_policies_pluggable():
    report = run_scenario(quick_spec(admission="knapsack"))
    assert report.submitted > 0


def test_the_policies_a_spec_names_are_the_ones_the_orchestrator_runs():
    spec = quick_spec(
        epoch_s=30.0,
        admission="knapsack",
        overbooking="forecast:0.9",
        orchestrator={"min_history_for_forecast": 10},
    )
    orchestrator = ScenarioRunner(spec).orchestrator
    assert isinstance(orchestrator.admission, KnapsackPolicy)
    assert isinstance(orchestrator.overbooking, ForecastOverbooking)
    assert orchestrator.overbooking.quantile == 0.9
    assert orchestrator.config.min_history_for_forecast == 10
    assert orchestrator.config.monitoring_epoch_s == 30.0


def test_arrivals_digest_repeats_per_seed_and_moves_with_seed_and_policy():
    digest = run_scenario(quick_spec()).digest
    assert run_scenario(quick_spec()).digest == digest
    assert run_scenario(quick_spec(seed=12)).digest != digest
    assert run_scenario(quick_spec(overbooking="fixed:1.8")).digest != digest


def test_a_scenario_is_the_sum_of_its_load_sources():
    """Zone tenants, Poisson arrivals and a link failure in one spec:
    both sources are counted and noted, the outage heals, and the audit
    (arrival slices may expire inside the horizon) stays clean."""
    payload = build_named("commuter-quiet", seed=11).to_dict()
    payload.update(
        name="both-sources",
        arrivals={"rate_per_s": 1 / 120.0},
        failures=[
            {"kind": "link", "target": "enb1-mmwave", "start_s": 600.0,
             "duration_s": 300.0}
        ],
    )
    report = run_scenario(ScenarioSpec.from_dict(payload))
    kinds = [entry[1] for entry in report.timeline]
    zone, arrivals = kinds.count("submit"), kinds.count("arrival")
    assert zone == 2 and arrivals > 0
    assert report.submitted == zone + arrivals
    assert report.submitted == report.admitted + report.rejected
    assert report.handovers > 0
    assert report.outages_healed == report.outages == 1
    assert report.clean


# ----------------------------------------------------------------------
# Runner defects
# ----------------------------------------------------------------------
def test_a_fault_in_the_health_check_surfaces():
    """Only "holds no path" (``TransportError``) reads as "still
    healing"; anything else the health check raises is a fault."""
    runner = ScenarioRunner(build_named("commuter-quiet"))
    runner.run()  # zone slices outlive the horizon: the poll has work

    def broken(slice_id):
        raise KeyError(slice_id)

    runner.testbed.transport.path_healthy = broken
    with pytest.raises(KeyError):
        runner._poll_health()


def test_extra_drivers_must_be_domain_drivers():
    with pytest.raises(TypeError, match="DomainDriver"):
        ScenarioRunner(build_named("commuter-quiet"), extra_drivers=[object()])


# ----------------------------------------------------------------------
# One harness, as the source reads
# ----------------------------------------------------------------------
def test_one_scenario_runner_and_no_policy_table_outside_the_spec():
    runners = src_lines_matching(r"^class ScenarioRunner\b")
    assert len(runners) == 1 and runners[0].startswith("scenarios/runner.py:")
    one_shots = src_lines_matching(r"^def run_scenario\b")
    assert len(one_shots) == 1 and one_shots[0].startswith("scenarios/runner.py:")
    # The CLI reads the policy names off the spec module and nothing in
    # src/ reads them back off the CLI.
    assert src_lines_matching(r"Policy\b|Overbooking\(|RequestMix", "cli.py") == []
    assert src_lines_matching(r"from repro\.cli import (?!main\b)|import repro\.cli") == []
