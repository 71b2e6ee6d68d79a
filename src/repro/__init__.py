"""repro — end-to-end network slice overbooking orchestrator.

A faithful, fully-simulated reproduction of *"Overbooking Network Slices
End-to-End: Implementation and Demonstration"* (Zanzi et al., ACM
SIGCOMM Posters and Demos 2018): a slice broker that admits
heterogeneous slice requests for revenue, allocates them across RAN /
transport / cloud domains, and uses traffic forecasting to overbook
reservations — trading statistical-multiplexing gain against SLA
penalties.

Quickstart::

    from repro.experiments import ScenarioConfig, ScenarioRunner
    from repro.core.admission import KnapsackPolicy
    from repro.core.overbooking import AdaptiveOverbooking

    config = ScenarioConfig(
        horizon_s=2 * 3600,
        admission=KnapsackPolicy(),
        overbooking=AdaptiveOverbooking(violation_budget=0.05),
    )
    result = ScenarioRunner(config).run()
    print(result.row())

Package map:

- :mod:`repro.core` — admission, forecasting, overbooking, allocation,
  pricing, orchestrator (the paper's contribution).
- :mod:`repro.ran`, :mod:`repro.transport`, :mod:`repro.cloud`,
  :mod:`repro.epc` — the simulated testbed substrates.
- :mod:`repro.monitoring`, :mod:`repro.traffic`, :mod:`repro.sim` —
  time series, workloads and the event engine.
- :mod:`repro.api`, :mod:`repro.dashboard` — the demo's REST surface
  and control dashboard.
- :mod:`repro.experiments` — testbed builder and scenario runner used
  by every benchmark.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
