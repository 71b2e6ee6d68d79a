"""Tests for transport path self-healing."""

from __future__ import annotations

import pytest

from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.overbooking import ForecastOverbooking
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.transport.controller import TransportError
from repro.transport.paths import PathRequest
from repro.transport.topology import Topology
from tests.conftest import flows_of
from repro.traffic.patterns import ConstantProfile
from tests.conftest import make_request


@pytest.fixture
def reserved(testbed):
    """A slice path reserved over the mmWave uplink."""
    controller = testbed.transport
    allocation = controller.reserve_path(
        "s1",
        "00101",
        PathRequest("enb1-agg", "edge-dc-gw", min_bandwidth_mbps=50.0, max_delay_ms=10.0),
    )
    assert allocation.path.link_ids[0] == "enb1-mmwave-fwd"
    return testbed, controller, allocation


class TestRepairPath:
    def test_healthy_path_noop(self, reserved):
        _, controller, allocation = reserved
        assert controller.path_healthy("s1")
        repaired = controller.repair_path("s1")
        assert repaired.path.link_ids == allocation.path.link_ids
        assert controller.repairs_performed == 0

    def test_reroutes_around_failed_link(self, reserved):
        testbed, controller, _ = reserved
        testbed.transport.topology.link("enb1-mmwave-fwd").fail()
        assert not controller.path_healthy("s1")
        repaired = controller.repair_path("s1")
        assert repaired.path.link_ids[0] == "enb1-uwave-fwd"
        assert controller.repairs_performed == 1
        # Reservations moved: old link free of s1, new link holds it.
        assert not testbed.transport.topology.link("enb1-mmwave-fwd").has("s1")
        assert testbed.transport.topology.link("enb1-uwave-fwd").has("s1")

    def test_flows_reprogrammed(self, reserved):
        testbed, controller, _ = reserved
        testbed.transport.topology.link("enb1-mmwave-fwd").fail()
        controller.repair_path("s1")
        flows = flows_of(testbed.switch, "s1")
        assert len(flows) == 1
        assert flows[0].match.plmn_id == "00101"

    def test_no_detour_raises_and_preserves_surviving_reservations(self, reserved):
        testbed, controller, _ = reserved
        testbed.transport.topology.link("enb1-mmwave-fwd").fail()
        testbed.transport.topology.link("enb1-uwave-fwd").fail()
        with pytest.raises(TransportError):
            controller.repair_path("s1")
        # Surviving link (switch->edge) still carries the reservation.
        assert testbed.transport.topology.link("switch-edge-fwd").has("s1")

    def test_a_repeated_no_detour_repair_searches_nothing(self, reserved, path_searches):
        """The heal loop asks again every epoch the links stay down: the
        first answer is remembered, the reservation restored each time."""
        testbed, controller, allocation = reserved
        topo = testbed.transport.topology
        topo.link("enb1-mmwave-fwd").fail()
        topo.link("enb1-uwave-fwd").fail()
        messages = set()
        for _ in range(3):
            with pytest.raises(TransportError) as excinfo:
                controller.repair_path("s1")
            messages.add(str(excinfo.value))
            assert len(path_searches) == 1
            assert topo.link("switch-edge-fwd").has("s1")
            assert not topo.link("enb1-mmwave-fwd").has("s1")  # Known defect 3
            assert controller.allocation_of("s1") is allocation
        assert messages == {
            "repair failed: no path enb1-agg->edge-dc-gw with ≥50.0 Mb/s residual"
        }

    def test_reconciliation_after_link_recovery(self, reserved):
        testbed, controller, _ = reserved
        topo = testbed.transport.topology
        topo.link("enb1-mmwave-fwd").fail()
        topo.link("enb1-uwave-fwd").fail()
        with pytest.raises(TransportError):
            controller.repair_path("s1")
        topo.link("enb1-mmwave-fwd").restore()
        repaired = controller.repair_path("s1")  # healthy again → reconcile
        assert topo.link("enb1-mmwave-fwd").has("s1")
        assert repaired.effective_mbps == pytest.approx(50.0)

    def test_repair_unknown_slice_rejected(self, testbed):
        with pytest.raises(TransportError):
            testbed.transport.repair_path("ghost")

    def test_repair_respects_delay_bound(self, testbed):
        """A 2 ms-bound path over mmWave cannot detour via 2.5 ms µwave."""
        controller = testbed.transport
        controller.reserve_path(
            "tight",
            "00102",
            PathRequest("enb1-agg", "edge-dc-gw", min_bandwidth_mbps=10.0, max_delay_ms=2.0),
        )
        testbed.transport.topology.link("enb1-mmwave-fwd").fail()
        with pytest.raises(TransportError):
            controller.repair_path("tight")


class TestOrchestratorSelfHealing:
    def _orchestrator(self, testbed, self_healing=True):
        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            config=OrchestratorConfig(self_healing=self_healing),
            streams=RandomStreams(seed=6),
        )
        orch.start()
        return sim, orch

    def test_slice_rerouted_within_one_epoch(self, testbed):
        sim, orch = self._orchestrator(testbed)
        request = make_request(throughput_mbps=15.0, duration_s=3_600.0)
        orch.submit(request, ConstantProfile(15.0, level=0.6, noise_std=0.0))
        sim.run_until(120.0)
        slice_id = request.request_id.replace("req-", "slice-")
        first_link = orch.slice(slice_id).allocation.transport.path.link_ids[0]
        testbed.transport.topology.link(first_link).fail()
        sim.run_until(300.0)
        new_path = orch.slice(slice_id).allocation.transport.path.link_ids
        assert first_link not in new_path
        assert testbed.transport.repairs_performed == 1
        # Service continued: no lasting violations after the repair epoch.
        assert orch.slice(slice_id).violation_ratio() < 0.5

    def test_without_self_healing_violations_accrue(self, testbed):
        sim, orch = self._orchestrator(testbed, self_healing=False)
        request = make_request(throughput_mbps=15.0, duration_s=3_600.0)
        orch.submit(request, ConstantProfile(15.0, level=0.6, noise_std=0.0))
        sim.run_until(120.0)
        slice_id = request.request_id.replace("req-", "slice-")
        first_link = orch.slice(slice_id).allocation.transport.path.link_ids[0]
        testbed.transport.topology.link(first_link).fail()
        sim.run_until(1_200.0)
        assert orch.slice(slice_id).violation_ratio() > 0.5
        assert orch.ledger.total_penalties > 0.0


class TestHealingRunsOnlyWhileSomethingIsDown:
    """The heal loop asks a repair-capable driver ``degraded()`` once per
    epoch and polls ``health`` per slice only on ``True``."""

    def _run(self, requests, always_degraded):
        """One testbed through an outage; returns the health polls per
        phase (before / during / after) and the event feed."""
        testbed = build_testbed(TestbedConfig())
        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            streams=RandomStreams(seed=6),
        )
        orch.start()
        driver = orch.registry.get("transport")
        polls = []
        plain_health = driver.health

        def spy(slice_id):
            polls.append((sim.now, slice_id))
            return plain_health(slice_id)

        driver.health = spy
        if always_degraded:
            driver.degraded = lambda: True
        for request in requests:
            assert orch.submit(
                request, ConstantProfile(10.0, level=0.6, noise_std=0.0)
            ).admitted
        sim.run_until(200.0)
        link = testbed.transport.topology.link("enb1-mmwave-fwd")
        assert any(link.has(s.slice_id) for s in orch.live_slices())
        link.fail()
        sim.run_until(400.0)
        link.restore()
        sim.run_until(590.0)
        phases = [
            [p for p in polls if lo < p[0] <= hi]
            for lo, hi in ((0.0, 200.0), (200.0, 400.0), (400.0, 600.0))
        ]
        return phases, [e.to_dict() for e in orch.events.since(0)]

    def test_polls_and_repairs_match_a_driver_that_is_always_polled(self):
        requests = [make_request(throughput_mbps=10.0) for _ in range(4)]
        (before, during, after), events = self._run(requests, always_degraded=False)
        (ref_before, ref_during, ref_after), ref_events = self._run(
            requests, always_degraded=True
        )
        # Every link up: not one health call.  (The reference polls every
        # active slice every epoch: 4 slices x 3 epochs.)
        assert before == [] and after == []
        assert len(ref_before) == 12 and len(ref_after) == 12
        # A link down: the same slices polled in the same order, the same
        # repairs announced.
        assert during == ref_during and len(during) == 12
        assert events == ref_events
        assert [e["type"] for e in events].count("slice.path_repaired") >= 1


class TestPathMemoLastsOneEpoch:
    def test_one_walk_per_path_and_a_resize_shows_next_epoch(self, monkeypatch):
        testbed = build_testbed(TestbedConfig(n_enbs=1))
        sim = Simulator()
        orch = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            overbooking=ForecastOverbooking(0.95),
            config=OrchestratorConfig(
                monitoring_epoch_s=1.0,
                deploy_time_s=0.5,
                reconfig_every_epochs=5,
                min_history_for_forecast=5,
            ),
            streams=RandomStreams(seed=6),
        )
        orch.start()
        requests = [make_request(throughput_mbps=20.0) for _ in range(2)]
        for request in requests:
            assert orch.submit(
                request, ConstantProfile(20.0, level=0.3, noise_std=0.01)
            ).admitted
        first, second = (
            orch.runtime(r.request_id.replace("req-", "slice-")) for r in requests
        )
        sim.run_until(0.75)
        path = first.network_slice.allocation.transport.path.link_ids
        assert path == second.network_slice.allocation.transport.path.link_ids

        lookups = []
        plain_link = Topology.link
        monkeypatch.setattr(
            Topology,
            "link",
            lambda self, link_id: lookups.append(link_id) or plain_link(self, link_id),
        )
        caps = {}  # epoch -> [cap of first, cap of second]
        plain_serve = orch.fleet.live_slots.serve

        def recording_serve(*args):
            served = plain_serve(*args)
            caps[orch._epoch_counter] = served.cap.tolist()
            return served

        orch.fleet.live_slots.serve = recording_serve

        def fresh_walk(runtime):
            links = [plain_link(testbed.transport.topology, lid) for lid in path]
            effective = runtime.network_slice.allocation.transport.effective_mbps
            return effective + max(0.0, min(l.residual_mbps for l in links))

        sim.run_until(4.75)  # epochs 1-4: nothing reconfigures
        assert lookups == list(path) * 4  # one walk an epoch, not one a slice
        assert caps[4] == [fresh_walk(first), fresh_walk(second)]
        sim.run_until(5.75)  # epoch 5 shrinks both slices after its serve pass
        assert first.effective_fraction < 0.9 and second.effective_fraction < 0.9
        assert caps[5] == caps[4]
        sim.run_until(6.75)  # epoch 6 reads the links again
        assert caps[6] == [fresh_walk(first), fresh_walk(second)] != caps[5]
