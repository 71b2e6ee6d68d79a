#!/usr/bin/env python
"""Plug a blocking southbound controller in beside the simulated domains.

A real SDN/NFV controller answers over RPC, so a driver for it blocks.
Such a driver writes only ``BaseDriver``'s ``_do_*`` hooks and declares
its RPC deadline.  It brings no async surface of its own, so the driver
registry registers it behind ``Walled``: each call runs on a worker
thread while the orchestrator's thread drains the window, and the
worker hands its answer back through the registry's door, to be run on
the orchestrator's thread.  ``firewall`` below stays the driver inside
the wall, so its ``rules`` are read directly.

Here the firewall's RPCs for one tenant hang past the deadline: that
slice is refused and unwound, the rest of the window installs.  When
the late RPC finally answers, the orchestrator's thread takes it in at
the door and compensates the rule it left, and the next monitoring
epoch reports it on the event feed.

Run:  python examples/blocking_driver.py
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from repro.core.orchestrator import Orchestrator
from repro.core.slices import SLA, ServiceType, SliceRequest
from repro.drivers.base import BaseDriver, DomainSpec, DriverCapabilities, Reservation
from repro.experiments.testbed import build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile


class FirewallRpcDriver(BaseDriver):
    """A firewall controller behind an RPC: one allow-rule per slice.
    Calls for ``slow_tenant`` answer only once ``answer`` is set."""

    domain = "firewall"
    CAPABILITIES = DriverCapabilities(
        domain=domain, resource_units=("rules",), max_concurrent_installs=4,
        operation_timeout_s=0.2,
    )

    def __init__(self, slow_tenant: str) -> None:
        super().__init__()
        self.slow_tenant = slow_tenant
        self.answer = threading.Event()
        self.rules: Dict[str, str] = {}

    def capabilities(self) -> DriverCapabilities:
        return self.CAPABILITIES

    def _do_prepare(self, spec: DomainSpec) -> Dict[str, Any]:
        if spec.tenant_id == self.slow_tenant:
            self.answer.wait(timeout=10.0)
        self.rules[spec.slice_id] = f"allow plmn of {spec.slice_id}"
        return {"rule": self.rules[spec.slice_id]}

    def _do_rollback(self, reservation: Reservation) -> None:
        self.rules.pop(reservation.slice_id, None)

    def _do_release(self, slice_id: str) -> None:
        del self.rules[slice_id]

    def utilization(self) -> dict:
        return {"domain": self.domain, "rules": len(self.rules)}


def request(tenant: str) -> SliceRequest:
    return SliceRequest(
        tenant_id=tenant,
        service_type=ServiceType.EMBB,
        sla=SLA(throughput_mbps=5.0, max_latency_ms=50.0, duration_s=3_600.0),
        price=50.0,
        penalty_rate=0.5,
        n_users=2,
    )


def main() -> None:
    testbed = build_testbed()
    firewall = FirewallRpcDriver(slow_tenant="tenant-slow")
    testbed.registry.register(firewall)
    sim = Simulator()
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        registry=testbed.registry,
        streams=RandomStreams(seed=7),
    )
    orchestrator.start()

    # One window, installed by the batch planner on this thread; the
    # firewall's calls run on workers under their 0.2 s deadline.
    window = [
        (request(tenant), ConstantProfile(5.0))
        for tenant in ("tenant-a", "tenant-slow", "tenant-b")
    ]
    for (req, _), decision in zip(window, orchestrator.install_admitted_batch(window)):
        print(f"{req.tenant_id:12s} admitted={decision.admitted}  {decision.reason}")
    print(f"firewall rules after the window: {sorted(firewall.rules)}")

    # The hung RPC answers.  Its worker posts the answer at the door;
    # this thread waits there for it and compensates the late rule.
    firewall.answer.set()
    testbed.registry.run_posted(wait=10.0)
    print(f"firewall rules after the late answer: {sorted(firewall.rules)}")

    sim.run_until(61.0)  # one monitoring epoch puts it on the feed
    for event in orchestrator.events.since(0):
        if event.event_type.startswith("driver."):
            print(f"t={event.time:g}s {event.event_type} {event.slice_id}: {event.data}")


if __name__ == "__main__":
    main()
