"""Tests for the multi-domain *planning* surface on the canonical testbed.

The allocator's pre-driver-API lifecycle (``allocate``/``release``/
``modify_throughput``/``resize``) is retired: commits run through the
southbound :class:`~repro.drivers.registry.DriverRegistry` (the
conformance and transaction suites are their executable spec).  What
remains here is the planning surface the orchestrator still consults —
demand estimation, free/aggregate capacity, candidate-DC ranking under
the latency budget, the install plan — plus end-to-end install checks
that run that plan through the testbed's driver registry.
"""

from __future__ import annotations

import pytest

from repro.cloud.datacenter import DatacenterTier
from repro.core.allocation import AllocationError, MultiDomainAllocator
from repro.core.slices import NetworkSlice
from repro.drivers.transaction import InstallJob, TransactionError, install_sequentially
from tests.conftest import make_request


def make_slice(testbed, **kwargs) -> NetworkSlice:
    network_slice = NetworkSlice(make_request(**kwargs))
    network_slice.plmn = testbed.plmn_pool.allocate(network_slice.slice_id)
    return network_slice


def install_e2e(testbed, network_slice, effective_fraction=1.0):
    """End-to-end install through the driver registry: the allocator's
    install plan, tried attempt by attempt by the blocking executor."""
    allocator = testbed.allocator
    try:
        attempts = allocator.install_attempts(
            network_slice,
            allocator.size(network_slice.request, effective_fraction),
            testbed.registry.domains(),
        )
    except AllocationError as exc:
        raise TransactionError(exc.domain, exc.message) from exc
    outcome = install_sequentially(
        testbed.registry, InstallJob(network_slice.slice_id, attempts)
    )
    if not outcome.ok:
        raise outcome.error
    return outcome.reservations


class TestLifecycleRetired:
    def test_no_lifecycle_method_remains(self):
        for name in ("allocate", "release", "modify_throughput", "resize"):
            assert not hasattr(MultiDomainAllocator, name), (
                f"MultiDomainAllocator.{name} should be retired; lifecycle "
                f"goes through the DriverRegistry"
            )

    def test_testbed_carries_the_registry(self, testbed):
        assert set(testbed.registry.domains()) == {"ran", "transport", "cloud", "epc"}


class TestDemandVector:
    def test_components_positive(self, testbed):
        demand = testbed.allocator.demand_vector(make_request(throughput_mbps=20.0))
        assert demand.prbs > 0
        assert demand.mbps == 20.0
        assert demand.vcpus == 6.0  # vEPC: 2×small(1) + 2×medium(2)

    def test_prbs_scale_with_throughput(self, testbed):
        small = testbed.allocator.demand_vector(make_request(throughput_mbps=5.0))
        big = testbed.allocator.demand_vector(make_request(throughput_mbps=40.0))
        assert big.prbs > small.prbs


class TestFreeVector:
    def test_initially_matches_testbed(self, testbed):
        free = testbed.allocator.free_vector()
        assert free.prbs == 100  # best single 20 MHz cell
        assert free.mbps == pytest.approx(1_000.0)  # best eNB uplink (mmWave)
        assert free.vcpus == 2 * 16 + 4 * 32  # edge + core

    def test_shrinks_after_registry_install(self, testbed):
        before = testbed.allocator.free_vector()
        network_slice = make_slice(testbed)
        install_e2e(testbed, network_slice)
        after = testbed.allocator.free_vector()
        assert after.vcpus == before.vcpus - 6


class TestRegistryInstall:
    def test_end_to_end_install(self, testbed):
        network_slice = make_slice(testbed, throughput_mbps=20.0, max_latency_ms=50.0)
        reservations = install_e2e(testbed, network_slice)
        assert reservations["ran"].details["allocation"].effective_prbs > 0
        assert reservations["transport"].details["link_ids"]
        assert reservations["cloud"].details["dc_id"] in ("edge-dc", "core-dc")

    def test_relaxed_latency_prefers_core(self, testbed):
        network_slice = make_slice(testbed, max_latency_ms=100.0)
        reservations = install_e2e(testbed, network_slice)
        assert reservations["cloud"].details["dc_id"] == "core-dc"

    def test_tight_latency_forces_edge(self, testbed):
        # RAN 4 ms + mmWave 1 ms + edge fiber 0.5 + processing 0.5 = 6 ms;
        # the core DC is 5 ms farther and cannot fit in 8 ms.
        network_slice = make_slice(testbed, max_latency_ms=8.0, throughput_mbps=5.0)
        reservations = install_e2e(testbed, network_slice)
        assert reservations["cloud"].details["dc_id"] == "edge-dc"

    def test_impossible_latency_rejected_with_no_residue(self, testbed):
        network_slice = make_slice(testbed, max_latency_ms=4.5, throughput_mbps=5.0)
        with pytest.raises(TransactionError):
            install_e2e(testbed, network_slice)
        # Nothing leaked in any domain.
        assert testbed.ran.serving_enb_of(network_slice.slice_id) is None
        assert testbed.transport.allocation_of(network_slice.slice_id) is None
        assert testbed.cloud.stack_of(network_slice.slice_id) is None

    def test_throughput_beyond_any_cell_rejected(self, testbed):
        network_slice = make_slice(testbed, throughput_mbps=500.0)
        with pytest.raises(TransactionError) as excinfo:
            install_e2e(testbed, network_slice)
        assert excinfo.value.domain == "ran"

    def test_effective_fraction_shrinks_commitments(self, testbed):
        full = make_slice(testbed, throughput_mbps=40.0)
        r_full = install_e2e(testbed, full)
        shrunk = make_slice(testbed, throughput_mbps=40.0)
        r_shrunk = install_e2e(testbed, shrunk, effective_fraction=0.5)
        ran_full = r_full["ran"].details["allocation"]
        ran_shrunk = r_shrunk["ran"].details["allocation"]
        assert ran_shrunk.effective_prbs < ran_full.effective_prbs
        assert ran_shrunk.nominal_prbs == ran_full.nominal_prbs
        transport_shrunk = r_shrunk["transport"].details["allocation"]
        assert transport_shrunk.effective_mbps == pytest.approx(20.0)

    def test_release_returns_all_resources(self, testbed):
        free_before = testbed.allocator.free_vector()
        network_slice = make_slice(testbed)
        install_e2e(testbed, network_slice)
        for driver in reversed(testbed.registry.drivers()):
            driver.release(network_slice.slice_id)
        free_after = testbed.allocator.free_vector()
        assert free_after.prbs == free_before.prbs
        assert free_after.mbps == pytest.approx(free_before.mbps)
        assert free_after.vcpus == free_before.vcpus


class TestCandidateDatacenters:
    def test_candidates_core_first(self, testbed):
        request = make_request(max_latency_ms=100.0)
        candidates = testbed.allocator.candidate_datacenters(request, "enb1-agg")
        assert candidates[0].tier is DatacenterTier.CORE

    def test_tight_budget_only_edge(self, testbed):
        request = make_request(max_latency_ms=8.0, throughput_mbps=5.0)
        candidates = testbed.allocator.candidate_datacenters(request, "enb1-agg")
        assert [dc.tier for dc in candidates] == [DatacenterTier.EDGE]

    def test_feasible_probe(self, testbed):
        assert testbed.allocator.feasible(make_request())
        assert not testbed.allocator.feasible(make_request(throughput_mbps=500.0))
