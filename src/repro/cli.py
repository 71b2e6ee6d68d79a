"""Command-line interface.

``python -m repro <command>`` drives the reproduction without writing
code:

- ``demo`` — replay a demo-like session and print the dashboard,
- ``scenario`` — run one configurable workload and print its result row,
- ``scenarios`` — run/list the mobility+failure scenario packs
  (``repro scenarios run commuter-failure --seed 42``),
- ``sweep`` — sweep the overbooking factor and print the D2-style table,
- ``experiments`` — list the benchmark experiments and their claims.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.dashboard.reports import format_table
from repro.scenarios import (
    ArrivalSpec,
    ScenarioError,
    ScenarioSpec,
    build_named,
    load_scenario_file,
    named_scenarios,
    run_scenario,
)
from repro.scenarios.spec import ADMISSION_POLICIES, ARRIVAL_MIXES, parse_overbooking

EXPERIMENTS = [
    ("D1", "bench_d1_admission.py", "revenue-max admission beats naive acceptance"),
    ("D2", "bench_d2_overbooking_gain.py", "overbooking gain vs. penalty trade-off"),
    ("D3", "bench_d3_forecasting.py", "forecasting accuracy enables safe overbooking"),
    ("D4", "bench_d4_e2e_deployment.py", "end-to-end deployment and UE attachment"),
    ("D5", "bench_d5_transport_paths.py", "delay/capacity-guaranteed transport paths"),
    ("D6", "bench_d6_placement.py", "edge vs. core DC selection"),
    ("D7", "bench_d7_adaptive.py", "adaptive gain-vs-violation trade-off"),
    ("D8", "bench_d8_scalability.py", "orchestrator scalability"),
    ("D9", "bench_d9_batch_window.py", "batch-window broker ablation"),
    ("D10", "bench_d10_self_healing.py", "transport self-healing ablation"),
    ("D13", "bench_d13_scenarios.py", "mobility+failure scenario packs score clean"),
]


def _overbooking(text: str) -> str:
    """argparse ``type=``: the string, once the spec's parser takes it."""
    try:
        parse_overbooking(text)
    except ScenarioError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="End-to-end network slice overbooking orchestrator (SIGCOMM'18 demo reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="replay a demo-like session, print the dashboard")
    demo.add_argument("--seed", type=int, default=2018)
    demo.add_argument("--hours", type=float, default=2.0)

    scenario = sub.add_parser("scenario", help="run one workload, print the result row")
    scenario.add_argument("--hours", type=float, default=2.0)
    scenario.add_argument("--interarrival", type=float, default=120.0, help="mean seconds between requests")
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--admission", choices=sorted(ADMISSION_POLICIES), default="fcfs")
    scenario.add_argument("--overbooking", type=_overbooking, default="none")
    scenario.add_argument("--mix", choices=list(ARRIVAL_MIXES), default="default")
    scenario.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    scenarios = sub.add_parser(
        "scenarios", help="mobility+failure scenario packs (scenario engine)"
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_run = scenarios_sub.add_parser(
        "run", help="run one pack and print its ScenarioReport"
    )
    scenarios_run.add_argument("name", help="pack name, or a path to a spec JSON file")
    scenarios_run.add_argument("--seed", type=int, default=0)
    scenarios_run.add_argument(
        "--horizon", type=float, default=None, help="override the horizon (seconds)"
    )
    scenarios_run.add_argument(
        "--out", default=None, help="also write the full report JSON to this path"
    )
    scenarios_run.add_argument(
        "--json", action="store_true", help="emit the report JSON on stdout"
    )
    scenarios_sub.add_parser("list", help="list the built-in packs")

    sweep = sub.add_parser("sweep", help="sweep the overbooking factor (D2 table)")
    sweep.add_argument("--hours", type=float, default=2.0)
    sweep.add_argument("--seed", type=int, default=4)
    sweep.add_argument(
        "--factors", type=float, nargs="+", default=[1.0, 1.5, 2.0, 2.5]
    )

    sub.add_parser("experiments", help="list the benchmark experiments")
    return parser


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.api import build_orchestrator_api
    from repro.core.orchestrator import Orchestrator, OrchestratorConfig
    from repro.dashboard.dashboard import Dashboard
    from repro.experiments.testbed import build_testbed
    from repro.sim.engine import Simulator
    from repro.sim.randomness import RandomStreams
    from repro.traffic.generator import RequestGenerator

    testbed = build_testbed()
    sim = Simulator()
    streams = RandomStreams(seed=args.seed)
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        admission=ADMISSION_POLICIES["greedy"](),
        overbooking=parse_overbooking("adaptive:0.05"),
        config=OrchestratorConfig(),
        streams=streams,
    )
    orchestrator.start()
    # Tenants talk to the orchestrator through the versioned northbound
    # API, exactly as the demo dashboard would.  API clients cannot ship
    # a TrafficProfile, so the generator's own profile draw is discarded
    # and the service re-samples one from the vertical spec.
    api = build_orchestrator_api(orchestrator)

    def submit_via_v1(request, profile) -> None:
        api.post(
            "/v1/slices",
            body={
                "service_type": request.service_type.value,
                "throughput_mbps": request.sla.throughput_mbps,
                "max_latency_ms": request.sla.max_latency_ms,
                "duration_s": request.sla.duration_s,
                "availability": request.sla.availability,
                "price": request.price,
                "penalty_rate": request.penalty_rate,
                "n_users": request.n_users,
            },
            headers={"X-Tenant-Id": request.tenant_id},
        )

    generator = RequestGenerator(streams.stream("arrivals"), arrival_rate_per_s=1 / 300.0)
    generator.drive(sim, args.hours * 3_600.0, submit_via_v1)
    sim.run_until(args.hours * 3_600.0)
    print(Dashboard(orchestrator).render())
    feed = api.get(f"/v1/events?since={max(0, orchestrator.events.last_seq - 8)}").body
    if feed["events"]:
        print("\n--- Recent events (GET /v1/events) ---")
        for event in feed["events"]:
            print(
                f"  seq={event['seq']:<4d} t={event['time']:8.0f}s "
                f"{event['type']:<20s} {event['slice_id'] or '-'}"
            )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    report = run_scenario(
        ScenarioSpec(
            name="scenario",
            seed=args.seed,
            horizon_s=args.hours * 3_600.0,
            n_enbs=2,
            arrivals=ArrivalSpec(rate_per_s=1.0 / args.interarrival, mix=args.mix),
            admission=args.admission,
            overbooking=args.overbooking,
        )
    )
    row = report.row()
    if args.json:
        print(json.dumps(row, sort_keys=True))
    else:
        print(format_table(list(row.keys()), [list(row.values())]))
    return 0 if report.clean else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    clean = True
    for factor in args.factors:
        report = run_scenario(
            ScenarioSpec(
                name="sweep",
                seed=args.seed,
                horizon_s=args.hours * 3_600.0,
                n_enbs=2,
                arrivals=ArrivalSpec(rate_per_s=1 / 45.0, mix="embb"),
                overbooking="none" if factor <= 1.0 else f"fixed:{factor}",
            )
        )
        clean = clean and report.clean
        rows.append(
            [
                factor,
                report.mean_multiplexing_gain,
                report.violation_rate,
                report.gross_revenue,
                report.total_penalties,
                report.net_revenue,
            ]
        )
    print(
        format_table(
            ["factor", "gain", "viol_rate", "gross", "penalties", "net"], rows
        )
    )
    return 0 if clean else 1


def cmd_experiments(args: argparse.Namespace) -> int:
    print(format_table(["id", "bench", "claim"], EXPERIMENTS))
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    import os

    if args.scenarios_command == "list":
        packs = [build_named(name) for name in named_scenarios()]
        rows = [[p.name, p.mobility.model, len(p.failures)] for p in packs]
        print(format_table(["pack", "mobility", "failures"], rows))
        return 0

    try:
        if os.path.exists(args.name) or args.name.endswith(".json"):
            spec = replace(load_scenario_file(args.name), seed=args.seed)
        else:
            spec = build_named(args.name, seed=args.seed)
        if args.horizon is not None:
            spec = replace(spec, horizon_s=args.horizon)
        spec.validate()
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run_scenario(spec)
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    # Non-zero exit when the run is dirty, so CI smokes fail loudly.
    return 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "demo": cmd_demo,
        "scenario": cmd_scenario,
        "scenarios": cmd_scenarios,
        "sweep": cmd_sweep,
        "experiments": cmd_experiments,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
