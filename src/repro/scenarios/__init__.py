"""Scenario engine: one declarative, seeded, digested way to run a load.

A scenario is the sum of its load sources — Poisson slice requests (the
paper's admission and overbooking figures), users *moving* (commuter
tides, vehicular corridors) — plus infrastructure *failing with
restoration*, run against the broker policies the spec names and scored
into a deterministic :class:`~repro.scenarios.report.ScenarioReport`.

Entry points:

* :func:`~repro.scenarios.spec.build_named` /
  :func:`~repro.scenarios.runner.run_named` — the built-in packs
  (``repro scenarios list`` on the CLI);
* :class:`~repro.scenarios.spec.ScenarioSpec` +
  :class:`~repro.scenarios.runner.ScenarioRunner` — custom specs from
  dicts or JSON files.
"""

from repro.scenarios.failures import FailurePack, OutageRecord
from repro.scenarios.mobility import (
    CommuterTides,
    HandoverEvent,
    MobilityModel,
    MobilityTimeline,
    VehicularCorridor,
    build_model,
    load_trace_timeline,
)
from repro.scenarios.report import ScenarioReport
from repro.scenarios.runner import ScenarioRunner, run_named, run_scenario
from repro.scenarios.spec import (
    ArrivalSpec,
    FailureSpec,
    MobilitySpec,
    ScenarioError,
    ScenarioSpec,
    TenantSpec,
    build_named,
    load_scenario_file,
    named_scenarios,
)

__all__ = [
    "ArrivalSpec",
    "CommuterTides",
    "FailurePack",
    "FailureSpec",
    "HandoverEvent",
    "MobilityModel",
    "MobilitySpec",
    "MobilityTimeline",
    "OutageRecord",
    "ScenarioError",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "TenantSpec",
    "VehicularCorridor",
    "build_model",
    "build_named",
    "load_scenario_file",
    "load_trace_timeline",
    "named_scenarios",
    "run_named",
    "run_scenario",
]
