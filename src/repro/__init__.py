"""repro — end-to-end network slice overbooking orchestrator.

A faithful, fully-simulated reproduction of *"Overbooking Network Slices
End-to-End: Implementation and Demonstration"* (Zanzi et al., ACM
SIGCOMM Posters and Demos 2018): a slice broker that admits
heterogeneous slice requests for revenue, allocates them across RAN /
transport / cloud domains, and uses traffic forecasting to overbook
reservations — trading statistical-multiplexing gain against SLA
penalties.

Quickstart::

    from repro.scenarios import ArrivalSpec, ScenarioSpec, run_scenario

    spec = ScenarioSpec(
        name="quickstart",
        horizon_s=2 * 3600,
        n_enbs=2,
        arrivals=ArrivalSpec(rate_per_s=1 / 300),
        admission="knapsack",
        overbooking="adaptive:0.05",
    )
    report = run_scenario(spec)
    print(report.row(), report.digest)

Package map:

- :mod:`repro.core` — admission, forecasting, overbooking, allocation,
  pricing, orchestrator (the paper's contribution).
- :mod:`repro.ran`, :mod:`repro.transport`, :mod:`repro.cloud`,
  :mod:`repro.epc` — the simulated testbed substrates.
- :mod:`repro.monitoring`, :mod:`repro.traffic`, :mod:`repro.sim` —
  time series, workloads and the event engine.
- :mod:`repro.api`, :mod:`repro.dashboard` — the demo's REST surface
  and control dashboard.
- :mod:`repro.experiments` — the Fig. 2 testbed builder.
- :mod:`repro.scenarios` — the one scenario runner: a seeded, digested
  spec of load sources (Poisson arrivals, mobile zone tenants),
  failures and policies behind every benchmark table.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
