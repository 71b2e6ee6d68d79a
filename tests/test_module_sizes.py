"""No ``src/repro`` module outgrows 1 000 lines.

``core/orchestrator.py`` is the one module above that bar; it is held at
its present size until request handling — sizing, the calendar gate,
staging, both install entry points, advance bookings, quotas — is split
out of it after the calendar gate's rewrite (ROADMAP items 16 and 6; the
slice lifecycle already went to ``core/epoch.py``), and may only shrink
meanwhile.  Its config is
held to its present fields too: a setting that has a home elsewhere (a
driver's deadline, the planner's sizes) is not passed through it again.
"""

import dataclasses
import pathlib

from repro.core.orchestrator import OrchestratorConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULE_LINES_CEILING = 1_000
ORCHESTRATOR_LINES_CEILING = 992
ORCHESTRATOR_CONFIG_FIELDS_CEILING = 15


def test_no_module_outgrows_the_ceiling():
    sizes = {
        path.relative_to(SRC).as_posix(): path.read_bytes().count(b"\n")
        for path in SRC.rglob("*.py")
    }
    assert sizes.pop("core/orchestrator.py") <= ORCHESTRATOR_LINES_CEILING
    assert {name: lines for name, lines in sizes.items() if lines > MODULE_LINES_CEILING} == {}


def test_the_orchestrator_config_gains_no_pass_through():
    assert len(dataclasses.fields(OrchestratorConfig)) <= ORCHESTRATOR_CONFIG_FIELDS_CEILING
