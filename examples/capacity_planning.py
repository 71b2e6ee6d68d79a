#!/usr/bin/env python
"""Capacity planning: where should the operator set the overbooking knob?

Sweeps the fixed overbooking factor (and the adaptive controller) over a
busy simulated afternoon and prints the gain / penalty / net-revenue
table the operator would use to choose an operating point — the
quantitative version of the demo's gains-vs-penalties display.

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

from repro.dashboard.reports import format_table
from repro.scenarios import ArrivalSpec, ScenarioSpec, run_scenario


def run_policy(label: str, overbooking: str) -> list:
    result = run_scenario(
        ScenarioSpec(
            name="capacity-planning",
            seed=17,
            horizon_s=4 * 3_600.0,
            n_enbs=2,
            arrivals=ArrivalSpec(rate_per_s=1 / 45.0, mix="embb"),
            overbooking=overbooking,
        )
    )
    return [
        label,
        result.admitted,
        f"{result.mean_multiplexing_gain:.2f}",
        f"{result.violation_rate:.2%}",
        f"{result.gross_revenue:.0f}",
        f"{result.total_penalties:.0f}",
        f"{result.net_revenue:.0f}",
    ]


def main() -> None:
    rows = [run_policy("none (1.0)", "none")]
    for factor in (1.25, 1.5, 2.0, 2.5, 3.0):
        rows.append(run_policy(f"fixed {factor}", f"fixed:{factor}"))
    rows.append(run_policy("adaptive (5% budget)", "adaptive:0.05"))
    print("=== overbooking operating points (4 h diurnal eMBB workload) ===\n")
    print(
        format_table(
            ["policy", "admitted", "gain", "viol_rate", "gross", "penalties", "net"],
            rows,
        )
    )
    print(
        "\nReading the table: gain and gross revenue rise with the factor, but\n"
        "past the knee penalties erase the profit — the demo's trade-off.\n"
        "The adaptive controller finds the knee without manual tuning."
    )


if __name__ == "__main__":
    main()
