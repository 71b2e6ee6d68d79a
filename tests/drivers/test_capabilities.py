"""The in-process adapters' capabilities are constants, built once.

``capabilities()`` is read over and over (``resize``, the resize
filter, the heal loop, the planner's snapshot), so each adapter hands
back one frozen instance instead of building four constants per read.
These tests pin the instance and every field.
"""

from __future__ import annotations

import pytest

from repro.core.orchestrator import Orchestrator
from repro.drivers import adapters
from repro.drivers.base import DriverCapabilities
from repro.drivers.transaction import resize_everywhere
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request

#: Each adapter's declared fields, as they were when built per call;
#: every other field keeps its default.
DECLARED = {
    "ran": dict(resource_units=("prbs",), supports_resize=True),
    "transport": dict(resource_units=("mbps",), supports_resize=True, supports_repair=True),
    "cloud": dict(resource_units=("vcpus",)),
    "epc": dict(prepare_after=("cloud",)),
}


@pytest.mark.parametrize("domain", sorted(DECLARED))
def test_capabilities_are_one_frozen_instance(testbed, domain):
    driver = testbed.registry.get(domain)
    first = driver.capabilities()
    assert isinstance(driver, adapters._InProcessDriver)
    assert all(driver.capabilities() is first for _ in range(3))
    assert first.domain == driver.domain == domain
    assert first == DriverCapabilities(domain=domain, **DECLARED[domain])
    # No native two-phase commit, one operation at a time, no RPC deadline.
    assert first.transactional is False
    assert first.max_concurrent_installs == 1
    assert first.operation_timeout_s is None


def test_a_second_registry_shares_the_constants(testbed):
    other = adapters.build_default_registry(testbed.allocator)
    for domain in DECLARED:
        assert other.get(domain).capabilities() is testbed.registry.get(domain).capabilities()


def test_a_resize_builds_no_capabilities(testbed, monkeypatch):
    orch = Orchestrator(
        sim=Simulator(),
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=3),
        registry=testbed.registry,
    )
    orch.start()
    request = make_request(throughput_mbps=10.0, duration_s=1e6)
    decision = orch.submit(request, ConstantProfile(10.0))
    assert decision.admitted
    orch.sim.run_until(10.0)
    (live,) = orch.live_slices()

    built = []
    plain_init = DriverCapabilities.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("domain"))
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(DriverCapabilities, "__init__", counted_init)
    resized = resize_everywhere(
        testbed.registry, live.slice_id, tenant_id=request.tenant_id,
        throughput_mbps=12.0, max_latency_ms=request.sla.max_latency_ms,
        duration_s=request.sla.duration_s, effective_fraction=1.0,
    )
    assert sorted(resized) == ["ran", "transport"]
    assert built == []
    # The spy is live: a capability built now is seen.
    DriverCapabilities(domain="probe")
    assert len(built) == 1
