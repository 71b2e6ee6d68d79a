"""D2 — Overbooking raises multiplexing gain; dashboard shows gain vs. penalties.

The headline demo claim: "maximizes the statistical multiplexing of
network slices resources ... our dashboard shows the current gains vs.
penalties".  We sweep the fixed overbooking factor on the canonical
testbed under a diurnal eMBB workload and report gain, penalties and
net revenue.

Expected shape: gain grows monotonically with the factor; penalties are
≈0 at factor 1 and grow past a knee; net revenue peaks at an
intermediate factor (overbooking pays until violations eat the profit).
"""

from __future__ import annotations

from repro.scenarios import ArrivalSpec, ScenarioSpec, run_scenario

from benchmarks.conftest import emit_table

FACTORS = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0)


def run_point(factor: float, seed: int = 4):
    return run_scenario(
        ScenarioSpec(
            name="d2",
            seed=seed,
            horizon_s=4 * 3_600.0,
            n_enbs=2,
            arrivals=ArrivalSpec(rate_per_s=1 / 45.0, mix="embb"),
            overbooking="none" if factor <= 1.0 else f"fixed:{factor}",
        )
    )


def test_d2_gain_vs_penalty_curve(benchmark):
    rows = []
    results = {}
    for factor in FACTORS:
        result = run_point(factor)
        results[factor] = result
        rows.append(
            [
                factor,
                result.mean_multiplexing_gain,
                result.peak_multiplexing_gain,
                result.admitted,
                result.gross_revenue,
                result.total_penalties,
                result.net_revenue,
                result.violation_rate,
                result.digest[:12],
            ]
        )
    emit_table(
        "D2",
        "overbooking factor sweep (diurnal eMBB, 4 h)",
        ["factor", "gain_mean", "gain_peak", "admitted", "gross", "penalties", "net", "viol_rate", "digest"],
        rows,
    )
    gains = [results[f].mean_multiplexing_gain for f in FACTORS]
    # Gain is monotone non-decreasing in the factor (within noise).
    assert all(b >= a - 0.05 for a, b in zip(gains, gains[1:]))
    # No overbooking ⇒ (near) zero penalties; aggressive ⇒ real penalties.
    assert results[1.0].total_penalties == 0.0
    assert results[3.0].total_penalties > 0.0
    # The knee: some intermediate factor beats both extremes on net revenue.
    best = max(FACTORS, key=lambda f: results[f].net_revenue)
    assert 1.0 < best < 3.0
    # Timed kernel: one mid-factor scenario.
    benchmark.pedantic(lambda: run_point(1.5, seed=7), rounds=1, iterations=1)
