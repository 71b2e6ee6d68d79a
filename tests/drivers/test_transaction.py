"""Two-phase install transaction + registry behavior.

The acceptance bar: injecting a driver failure during ``prepare`` on
any one domain leaves **zero residual reservations** in the other
domains — checked both at the transaction level (pure mocks) and
end-to-end through the orchestrator against the real testbed.
"""

from __future__ import annotations

import pytest

from repro.core.orchestrator import Orchestrator
from repro.core.slices import SliceState
from repro.drivers.adapters import TransportDriver, build_default_registry
from repro.drivers.base import DomainSpec, DriverError, ReservationState
from repro.drivers.mock import MockDriver
from repro.drivers.registry import DriverRegistry
from repro.drivers.transaction import InstallTransaction, TransactionError
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile
from repro.experiments.testbed import TestbedConfig, build_testbed
from tests.conftest import make_request


def mock_registry(n: int = 3) -> DriverRegistry:
    return DriverRegistry(
        [MockDriver(domain=f"d{i}", capacity_mbps=100.0) for i in range(n)]
    )


def specs_for(registry: DriverRegistry, slice_id: str = "slice-x", mbps: float = 10.0):
    return {
        domain: DomainSpec(slice_id=slice_id, throughput_mbps=mbps)
        for domain in registry.domains()
    }


class TestRegistry:
    def test_order_is_registration_order(self):
        registry = mock_registry(3)
        assert registry.domains() == ["d0", "d1", "d2"]

    def test_duplicate_domain_rejected_unless_replace(self):
        registry = mock_registry(1)
        with pytest.raises(DriverError):
            registry.register(MockDriver(domain="d0"))
        replacement = MockDriver(domain="d0")
        registry.register(replacement, replace=True)
        assert registry.get("d0") is replacement

    def test_unknown_domain_raises(self):
        registry = mock_registry(1)
        with pytest.raises(DriverError):
            registry.get("nope")


class TestTransaction:
    def test_success_commits_every_domain(self):
        registry = mock_registry(3)
        reservations = InstallTransaction(registry).run(specs_for(registry))
        assert set(reservations) == {"d0", "d1", "d2"}
        assert all(
            r.state is ReservationState.COMMITTED for r in reservations.values()
        )

    def test_prepare_failure_rolls_back_prepared_domains(self):
        registry = mock_registry(3)
        registry.get("d1").fail_next_prepare = 1
        rolled = []
        txn = InstallTransaction(
            registry, on_rollback=lambda d, res, reason: rolled.append(d)
        )
        with pytest.raises(TransactionError) as excinfo:
            txn.run(specs_for(registry))
        assert excinfo.value.domain == "d1"
        assert rolled == ["d0"]  # reverse order; d1/d2 never held anything
        for domain in registry.domains():
            assert registry.get(domain).held_mbps == 0.0
            assert registry.get(domain).reservation_of("slice-x") is None

    def test_first_domain_failure_needs_no_rollback(self):
        registry = mock_registry(3)
        registry.get("d0").fail_next_prepare = 1
        rolled = []
        txn = InstallTransaction(
            registry, on_rollback=lambda d, res, reason: rolled.append(d)
        )
        with pytest.raises(TransactionError):
            txn.run(specs_for(registry))
        assert rolled == []
        assert all(d.held_mbps == 0.0 for d in registry.drivers())

    def test_commit_failure_releases_committed_domains(self):
        registry = mock_registry(3)
        registry.get("d2").fail_next_commit = 1
        rolled = []
        txn = InstallTransaction(
            registry, on_rollback=lambda d, res, reason: rolled.append(d)
        )
        with pytest.raises(TransactionError) as excinfo:
            txn.run(specs_for(registry))
        assert excinfo.value.domain == "d2"
        # d0/d1 were already committed (released), d2's hold rolled back.
        assert set(rolled) == {"d0", "d1", "d2"}
        assert all(d.held_mbps == 0.0 for d in registry.drivers())

    def test_validate_hook_aborts_and_unwinds(self):
        registry = mock_registry(2)

        def validate(reservations):
            raise DriverError("orchestrator", "latency bound violated")

        with pytest.raises(TransactionError) as excinfo:
            InstallTransaction(registry).run(specs_for(registry), validate=validate)
        assert excinfo.value.domain == "orchestrator"
        assert all(d.held_mbps == 0.0 for d in registry.drivers())

    def test_spec_domain_mismatch_fails_before_any_prepare(self):
        registry = mock_registry(2)
        specs = specs_for(registry)
        del specs["d1"]
        with pytest.raises(TransactionError):
            InstallTransaction(registry).run(specs)
        assert all(d.prepares == 0 for d in registry.drivers())

    def test_retry_after_failure_succeeds(self):
        registry = mock_registry(2)
        registry.get("d1").fail_next_prepare = 1
        txn = InstallTransaction(registry)
        with pytest.raises(TransactionError):
            txn.run(specs_for(registry))
        reservations = txn.run(specs_for(registry))
        assert all(
            r.state is ReservationState.COMMITTED for r in reservations.values()
        )


def build_orchestrator(testbed, registry):
    sim = Simulator()
    orch = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        streams=RandomStreams(seed=3),
        registry=registry,
    )
    orch.start()
    return orch


def submit(orch, **kwargs):
    request = make_request(arrival_time=orch.sim.now, **kwargs)
    profile = ConstantProfile(request.sla.throughput_mbps, level=0.5, noise_std=0.0)
    return request, orch.submit(request, profile)


def assert_zero_residue(testbed, slice_id):
    assert testbed.ran.serving_enb_of(slice_id) is None
    assert testbed.transport.allocation_of(slice_id) is None
    assert testbed.cloud.stack_of(slice_id) is None
    assert all(not link.slices() for link in testbed.transport.topology.links())
    assert all(enb.grid.effective_reserved == 0 for enb in testbed.ran.enbs())
    assert all(dc.free_vcpus == dc.total_vcpus for dc in testbed.cloud.datacenters())


def assert_indices_clean(testbed):
    """The delta-maintained placement indices still equal a recompute."""
    testbed.ran.verify_index()
    testbed.allocator.verify_uplink_aggregates()
    for dc in testbed.cloud.datacenters():
        dc.verify_fit_index()


class RefusingTransport(TransportDriver):
    """A transport backend that refuses paths to some gateways at
    prepare time — the race planning cannot see."""

    def __init__(self, controller, refuse):
        super().__init__(controller)
        self.refuse = set(refuse)

    def _do_prepare(self, spec):
        if spec.attributes["dst"] in self.refuse:
            raise DriverError(self.domain, f"no path to {spec.attributes['dst']}")
        return super()._do_prepare(spec)


def events_of(orch, event_type):
    return [e for e in orch.events.since(0) if e.event_type == event_type]


class TestOrchestratorRollback:
    """End-to-end: a chaos driver breaks the install mid-transaction."""

    def test_prepare_failure_in_last_domain_leaves_zero_residue(self, testbed):
        registry = build_default_registry(testbed.allocator)
        chaos = MockDriver(domain="chaos", capacity_mbps=1_000.0)
        # Fail every prepare: the orchestrator retries once per
        # candidate DC, and each attempt must fail for a hard reject.
        chaos.fail_next_prepare = 99
        registry.register(chaos)
        orch = build_orchestrator(testbed, registry)
        request, decision = submit(orch)
        assert not decision.admitted
        assert "chaos" in decision.reason
        slice_id = request.request_id.replace("req-", "slice-")
        assert orch.slice(slice_id).state is SliceState.REJECTED
        assert_zero_residue(testbed, slice_id)
        assert testbed.plmn_pool.available == testbed.plmn_pool.capacity
        assert orch.calendar.bookings() == []
        # One rejection; the rollbacks were flushed with it, once per
        # domain each attempt unwound (one attempt per candidate DC).
        assert len(events_of(orch, "slice.rejected")) == 1
        rollbacks = events_of(orch, "driver.rollback")
        assert chaos.prepares == len(testbed.cloud.datacenters())
        assert sorted(e.data["domain"] for e in rollbacks) == sorted(
            ["ran", "transport", "cloud", "epc"] * chaos.prepares
        )
        assert all(e.slice_id == slice_id for e in rollbacks)
        assert all(not driver.reservations() for driver in registry.drivers())
        assert_indices_clean(testbed)

    def test_commit_failure_in_extra_domain_leaves_zero_residue(self, testbed):
        registry = build_default_registry(testbed.allocator)
        chaos = MockDriver(domain="chaos", capacity_mbps=1_000.0)
        chaos.fail_next_commit = 99
        registry.register(chaos)
        orch = build_orchestrator(testbed, registry)
        request, decision = submit(orch)
        assert not decision.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        assert_zero_residue(testbed, slice_id)
        assert chaos.held_mbps == 0.0

    def test_install_succeeds_after_chaos_clears(self, testbed):
        registry = build_default_registry(testbed.allocator)
        chaos = MockDriver(domain="chaos", capacity_mbps=1_000.0)
        chaos.fail_next_prepare = 99
        registry.register(chaos)
        orch = build_orchestrator(testbed, registry)
        _, first = submit(orch)
        assert not first.admitted
        chaos.fail_next_prepare = 0  # chaos clears
        request, second = submit(orch)
        assert second.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        orch.sim.run_until(10.0)
        assert orch.slice(slice_id).state is SliceState.ACTIVE
        # The extra mock domain holds the slice alongside the real four.
        assert chaos.reservation_of(slice_id) is not None
        assert chaos.held_mbps > 0.0
        # Expiry releases every domain, mock included.
        orch.sim.run_until(4_000.0)
        assert orch.slice(slice_id).state is SliceState.EXPIRED
        assert chaos.held_mbps == 0.0
        assert_zero_residue(testbed, slice_id)

    def test_refused_first_dc_commits_on_second(self, testbed):
        """Candidate-DC fallback re-prepares every domain: the slice
        lands on the second DC exactly as a from-scratch install there
        would, and the retry puts no rollback noise on the feed."""
        first_dc, second_dc = sorted(
            testbed.cloud.datacenters(), key=lambda dc: dc.tier.value != "core"
        )
        registry = build_default_registry(testbed.allocator)
        registry.register(
            RefusingTransport(testbed.transport, refuse=[first_dc.gateway_node]),
            replace=True,
        )
        orch = build_orchestrator(testbed, registry)
        request, decision = submit(orch)
        assert decision.admitted
        slice_id = decision.slice_id
        reservations = {d.domain: d.reservation_of(slice_id) for d in registry.drivers()}
        assert all(
            r.state is ReservationState.COMMITTED for r in reservations.values()
        )
        assert all(len(d.reservations()) == 1 for d in registry.drivers())
        assert reservations["cloud"].details["dc_id"] == second_dc.dc_id
        assert first_dc.free_vcpus == first_dc.total_vcpus
        assert not any(
            link.slices()
            for link in testbed.transport.topology.links()
            if link.dst == first_dc.gateway_node
        )
        # The same request installed from scratch with the first DC out
        # of the running holds exactly the same radio and compute.
        reference = build_testbed(TestbedConfig())
        for link in reference.transport.topology.links():
            if link.dst == first_dc.gateway_node:
                link.fail()
        reference_orch = build_orchestrator(
            reference, build_default_registry(reference.allocator)
        )
        _, reference_decision = submit(reference_orch)
        assert reference_decision.admitted
        assert [enb.grid.free_prbs for enb in testbed.ran.enbs()] == [
            enb.grid.free_prbs for enb in reference.ran.enbs()
        ]
        assert second_dc.free_vcpus == reference.cloud.datacenter(
            second_dc.dc_id
        ).free_vcpus
        # Consumers read driver.rollback as install failure.
        assert not events_of(orch, "driver.rollback")
        assert_indices_clean(testbed)

    def test_commit_failure_in_prefix_domain_leaves_zero_residue(self, testbed):
        probe = MockDriver(domain="probe", capacity_mbps=1_000.0)
        probe.fail_next_commit = 99
        registry = DriverRegistry([probe])
        for driver in build_default_registry(testbed.allocator).drivers():
            registry.register(driver)
        orch = build_orchestrator(testbed, registry)
        request, decision = submit(orch)
        assert not decision.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        assert_zero_residue(testbed, slice_id)
        assert probe.held_mbps == 0.0

    def test_release_failure_keeps_reservation_retryable(self, testbed):
        """A failing backend release must not strand capacity behind a
        forgotten record: the reservation stays COMMITTED, the failure
        lands on the event feed, and a retry succeeds."""
        registry = build_default_registry(testbed.allocator)
        flaky = MockDriver(domain="flaky", capacity_mbps=1_000.0)
        registry.register(flaky)
        orch = build_orchestrator(testbed, registry)
        request, decision = submit(orch, duration_s=60.0)
        assert decision.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        orch.sim.run_until(10.0)
        flaky.fail_next_release = 1
        # Expiry (~t=73) sweeps all domains; stop before the next
        # monitoring epoch (t=120) retries the stuck release.
        orch.sim.run_until(90.0)
        assert orch.slice(slice_id).state is SliceState.EXPIRED
        failures = [
            e for e in orch.events.since(0) if e.event_type == "driver.release_failed"
        ]
        assert len(failures) == 1 and failures[0].data["domain"] == "flaky"
        # The hold survived, and the PLMN is NOT returned to the pool
        # while a backend still serves the slice under it.
        assert flaky.held_mbps > 0.0
        assert flaky.reservation_of(slice_id) is not None
        assert testbed.plmn_pool.available == testbed.plmn_pool.capacity - 1
        # The monitoring loop retries stuck releases each epoch.
        orch.sim.run_until(130.0)
        assert flaky.held_mbps == 0.0
        assert testbed.plmn_pool.available == testbed.plmn_pool.capacity
        recovered = [
            e
            for e in orch.events.since(0)
            if e.event_type == "driver.release_recovered"
        ]
        assert len(recovered) == 1 and recovered[0].slice_id == slice_id

    def test_empty_ran_fleet_books_rejection(self):
        """A planning failure (no eNBs at all) during install must book
        a rejection — the batch broker and advance bookings call
        install_admitted directly, where a crash would escape into the
        sim loop."""
        from repro.experiments.testbed import TestbedConfig, build_testbed

        testbed = build_testbed(TestbedConfig(n_enbs=0))
        orch = build_orchestrator(testbed, build_default_registry(testbed.allocator))
        request = make_request()
        profile = ConstantProfile(request.sla.throughput_mbps, level=0.5, noise_std=0.0)
        decision = orch.install_admitted(request, profile)
        assert not decision.admitted
        assert "no eNBs registered" in decision.reason
        assert orch.ledger.rejections == 1

    def test_epc_instance_bound_through_driver(self, testbed):
        registry = build_default_registry(testbed.allocator)
        orch = build_orchestrator(testbed, registry)
        request, decision = submit(orch)
        assert decision.admitted
        slice_id = request.request_id.replace("req-", "slice-")
        runtime = orch.runtime(slice_id)
        assert runtime.epc is not None and runtime.epc.running
        assert set(runtime.reservations) == {"ran", "transport", "cloud", "epc"}
        orch.sim.run_until(4_000.0)
        assert not runtime.epc.running
