"""D7 — Adaptive overbooking trades gain against an SLA-violation budget.

Demo claim: "the machine-learning engine implemented into the
orchestration algorithm trades off between multiplexing gain and SLA
violations".  We sweep the adaptive controller's violation budget and
compare against the no-overbooking and aggressive-fixed baselines.

Expected shape: the adaptive policy's violation rate tracks its budget
(tighter budget ⇒ fewer violations ⇒ less gain); its gain lands between
no-overbooking and aggressive-fixed.
"""

from __future__ import annotations

from repro.core.forecasting import HoltWintersForecaster
from repro.core.overbooking import AdaptiveOverbooking
from repro.scenarios import ArrivalSpec, ScenarioSpec, run_scenario

from benchmarks.conftest import emit_table

BUDGETS = (0.01, 0.05, 0.15)


def run_point(overbooking: str, seed: int = 4):
    return run_scenario(
        ScenarioSpec(
            name="d7",
            seed=seed,
            horizon_s=6 * 3_600.0,
            n_enbs=2,
            arrivals=ArrivalSpec(rate_per_s=1 / 45.0, mix="embb"),
            overbooking=overbooking,
            orchestrator={"min_history_for_forecast": 10},
        )
    )


def test_d7_violation_budget_sweep(benchmark):
    rows = []
    results = {}
    baseline = run_point("none")
    results["none"] = baseline
    rows.append(
        ["no-overbooking", "-", baseline.mean_multiplexing_gain, baseline.violation_rate, baseline.net_revenue, baseline.digest[:12]]
    )
    for budget in BUDGETS:
        result = run_point(f"adaptive:{budget}")
        results[budget] = result
        rows.append(
            [
                "adaptive",
                budget,
                result.mean_multiplexing_gain,
                result.violation_rate,
                result.net_revenue,
                result.digest[:12],
            ]
        )
    aggressive = run_point("fixed:3.0")
    results["fixed3"] = aggressive
    rows.append(
        ["fixed(3.0)", "-", aggressive.mean_multiplexing_gain, aggressive.violation_rate, aggressive.net_revenue, aggressive.digest[:12]]
    )
    emit_table(
        "D7",
        "adaptive overbooking vs. violation budget (6 h diurnal eMBB)",
        ["policy", "budget", "gain_mean", "viol_rate", "net_revenue", "digest"],
        rows,
    )
    # Adaptive sits between the two extremes on gain.
    for budget in BUDGETS:
        assert (
            results["none"].mean_multiplexing_gain - 0.05
            <= results[budget].mean_multiplexing_gain
            <= results["fixed3"].mean_multiplexing_gain + 0.05
        )
    # Looser budget ⇒ at least as much gain (weakly monotone).
    assert (
        results[0.15].mean_multiplexing_gain
        >= results[0.01].mean_multiplexing_gain - 0.05
    )
    # Tight budget keeps violations far below the aggressive baseline.
    assert results[0.01].violation_rate < aggressive.violation_rate
    # Timed kernel: one adaptive observation + decision step.
    policy = AdaptiveOverbooking(violation_budget=0.05)
    forecaster = HoltWintersForecaster(season_length=24).fit([10.0] * 48)

    def observe_decide():
        policy.observe(False)
        return policy.decide("s", 20.0, forecaster=forecaster)

    benchmark(observe_decide)
