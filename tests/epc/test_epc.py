"""Tests for the vEPC substrate: components, instance, attach."""

from __future__ import annotations

import pytest

from repro.cloud.datacenter import ComputeNode, Datacenter, DatacenterTier
from repro.cloud.heat import HeatStack
from repro.cloud.placement import BestFitPlacement
from repro.core.slices import PLMN
from repro.epc.attach import RRC_SETUP_MS, SIGNALLING_TRAVERSALS, AttachProcedure
from repro.epc.components import (
    EPC_COMPONENT_FLAVORS,
    EPC_FLAVORS,
    EpcComponentType,
    epc_template,
)
from repro.epc.instance import EpcError, EpcInstance
from repro.ran.channel import ChannelModel
from repro.ran.enb import ENodeB
from repro.ran.ue import UserEquipment


def make_epc(slice_id: str = "slice-1", plmn_id: str = "00101") -> EpcInstance:
    dc = Datacenter("dc", DatacenterTier.EDGE, nodes=[ComputeNode("n1", vcpus=16)])
    stack = HeatStack(epc_template(slice_id), dc, owner=slice_id)
    stack.create(BestFitPlacement())
    return EpcInstance(slice_id, plmn_id, stack)


class TestComponents:
    def test_four_functions(self):
        assert len(EpcComponentType) == 4
        assert set(EPC_COMPONENT_FLAVORS) == set(EpcComponentType)

    def test_template_has_one_vm_per_function(self):
        t = epc_template("slice-1")
        assert len(t.resources) == 4
        assert {r.name for r in t.resources} == {"mme", "hss", "sgw", "pgw"}
        assert t.total_vcpus == 6  # 2 small (1) + 2 medium (2)
        # The placement probe reads the constant instead of building this.
        assert list(EPC_FLAVORS) == t.flavors()


class TestInstance:
    def test_requires_complete_stack(self):
        dc = Datacenter("dc", DatacenterTier.EDGE, nodes=[ComputeNode("n1")])
        stack = HeatStack(epc_template("s"), dc)
        with pytest.raises(EpcError):
            EpcInstance("s", "00101", stack)  # not created yet

    def test_provision_and_lookup(self):
        epc = make_epc()
        epc.provision_subscriber("001010000000001")
        assert epc.is_subscriber("001010000000001")
        assert epc.subscriber_count == 1

    def test_foreign_plmn_imsi_rejected(self):
        epc = make_epc(plmn_id="00101")
        with pytest.raises(EpcError):
            epc.provision_subscriber("310410000000001")

    def test_duplicate_imsi_rejected(self):
        epc = make_epc()
        epc.provision_subscriber("001010000000001")
        with pytest.raises(EpcError):
            epc.provision_subscriber("001010000000001")

    def test_session_lifecycle(self):
        epc = make_epc()
        epc.provision_subscriber("001010000000001")
        bearer = epc.create_session("001010000000001")
        assert epc.session_of("001010000000001") == bearer
        assert epc.active_sessions == 1
        epc.delete_session("001010000000001")
        assert epc.active_sessions == 0

    def test_unknown_imsi_session_rejected(self):
        epc = make_epc()
        with pytest.raises(EpcError):
            epc.create_session("001010000000009")

    def test_double_session_rejected(self):
        epc = make_epc()
        epc.provision_subscriber("001010000000001")
        epc.create_session("001010000000001")
        with pytest.raises(EpcError):
            epc.create_session("001010000000001")

    def test_shutdown_clears_sessions(self):
        epc = make_epc()
        epc.provision_subscriber("001010000000001")
        epc.create_session("001010000000001")
        epc.shutdown()
        assert epc.active_sessions == 0
        with pytest.raises(EpcError):
            epc.create_session("001010000000001")


class TestAttach:
    def _setup(self, transport_delay_ms: float = 2.0):
        plmn = PLMN("001", "01")
        enb = ENodeB("enb1")
        epc = make_epc()
        enb.install_slice("slice-1", plmn, nominal_prbs=10, effective_prbs=10)
        procedure = AttachProcedure(enb, epc, transport_delay_ms)
        ue = UserEquipment(plmn, "slice-1", channel=ChannelModel(mean_snr_db=15.0, volatility_db=0.0))
        enb.register_ue(ue)
        return plmn, enb, epc, procedure, ue

    def test_successful_attach(self):
        _, enb, epc, procedure, ue = self._setup()
        epc.provision_subscriber(ue.imsi)
        outcome = procedure.attach(ue)
        assert outcome.success
        assert ue.attached
        assert outcome.bearer_id == 1
        assert enb.attached_count("slice-1") == 1

    def test_latency_accounting(self):
        _, _, epc, procedure, ue = self._setup(transport_delay_ms=3.0)
        epc.provision_subscriber(ue.imsi)
        outcome = procedure.attach(ue)
        expected = RRC_SETUP_MS + SIGNALLING_TRAVERSALS * 3.0 + epc.control_plane_latency_ms()
        assert outcome.latency_ms == pytest.approx(expected)

    def test_unknown_imsi_rejected_by_hss(self):
        _, _, _, procedure, ue = self._setup()
        outcome = procedure.attach(ue)  # never provisioned
        assert not outcome.success
        assert "HSS" in outcome.failure_reason
        assert not ue.attached

    def test_wrong_plmn_no_cell(self):
        plmn, enb, epc, procedure, _ = self._setup()
        stranger = UserEquipment(PLMN("001", "09"), "slice-other")
        outcome = procedure.attach(stranger)
        assert not outcome.success
        assert "not broadcast" in outcome.failure_reason

    def test_out_of_coverage(self):
        _, enb, epc, procedure, _ = self._setup()
        weak = UserEquipment(
            PLMN("001", "01"),
            "slice-1",
            channel=ChannelModel(mean_snr_db=-30.0, volatility_db=0.0),
        )
        epc.provision_subscriber(weak.imsi)
        outcome = procedure.attach(weak)
        assert not outcome.success
        assert "coverage" in outcome.failure_reason

    def test_epc_down_fails_session(self):
        _, _, epc, procedure, ue = self._setup()
        epc.provision_subscriber(ue.imsi)
        epc.shutdown()
        outcome = procedure.attach(ue)
        assert not outcome.success
        assert not ue.attached

    def test_detach_tears_down_session(self):
        _, _, epc, procedure, ue = self._setup()
        epc.provision_subscriber(ue.imsi)
        procedure.attach(ue)
        procedure.detach(ue)
        assert not ue.attached
        assert epc.session_of(ue.imsi) is None

    def test_reattach_after_detach(self):
        _, _, epc, procedure, ue = self._setup()
        epc.provision_subscriber(ue.imsi)
        procedure.attach(ue)
        procedure.detach(ue)
        outcome = procedure.attach(ue)
        assert outcome.success
