"""A ``driver-stall`` outage through the scenario runner.

The stalled domain is a chaos :class:`~repro.drivers.mock.MockDriver`
registered next to the four simulator adapters, so every install goes
through it.  Arrivals are installed by the blocking single-request
executor on the simulator's own thread, and the stall's restore is an
event on that simulator: a blocking call that parked until the restore
would never return.  So a stalled blocking call fails at once, naming
the stall, and the install is refused.

The run goes in a subprocess under a timeout, so a regression hangs the
child and fails this test instead of the suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

STALL_START_S, STALL_S = 600.0, 300.0

SCRIPT = f"""
import dataclasses, json
from repro.drivers.mock import MockDriver
from repro.scenarios import ArrivalSpec, FailureSpec, ScenarioRunner
from repro.scenarios.spec import build_named

def run():
    spec = dataclasses.replace(
        build_named("commuter-quiet", 1),
        arrivals=ArrivalSpec(0.02),
        failures=(FailureSpec("driver-stall", "firewall", {STALL_START_S}, {STALL_S}),),
    )
    firewall = MockDriver("firewall", capacity_mbps=1e6)
    runner = ScenarioRunner(spec, extra_drivers=[firewall])
    decisions, submit = [], runner.orchestrator.submit

    def spy(request, profile):
        decision = submit(request, profile)
        decisions.append((runner.sim.now, decision.admitted, decision.reason))
        return decision

    runner.orchestrator.submit = spy
    report = runner.run()
    return {{
        "digest": report.digest,
        "stalled_ops": firewall.stalled_ops,
        "in_stall": [
            [admitted, reason]
            for now, admitted, reason in decisions
            if {STALL_START_S} <= now < {STALL_START_S + STALL_S}
        ],
        "admitted_after": sum(
            admitted for now, admitted, _ in decisions if now >= {STALL_START_S + STALL_S}
        ),
    }}

print(json.dumps([run(), run()]))
"""


def test_driver_stall_refuses_installs_and_replays_exactly():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    output = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    first, second = json.loads(output.stdout.splitlines()[-1])
    assert first["digest"] == second["digest"]
    assert first == second
    # Every install inside the window hit the stalled firewall and was
    # refused with it named; nothing was admitted past it.
    assert first["stalled_ops"] >= 1
    refused = [reason for admitted, reason in first["in_stall"] if not admitted]
    assert len(refused) == len(first["in_stall"])
    assert any(reason.startswith("[firewall]") and "stalled" in reason for reason in refused)
    assert first["admitted_after"] >= 1
