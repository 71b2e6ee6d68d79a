"""The canonical simulated testbed (the demo's Fig. 2).

:func:`build_testbed` wires the RAN, transport and cloud controllers,
the planner views and the southbound driver registry every harness —
the scenario engine, the shards, the examples — runs on.
"""

from repro.experiments.testbed import Testbed, TestbedConfig, build_testbed

__all__ = ["Testbed", "TestbedConfig", "build_testbed"]
