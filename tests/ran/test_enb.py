"""Tests for the eNodeB / MOCN model."""

from __future__ import annotations

import pytest

from repro.core.slices import PLMN
from repro.ran.enb import ENodeB, RanConfigError
from repro.ran.ue import UserEquipment


@pytest.fixture
def enb():
    return ENodeB("enb1", bandwidth_mhz=20.0, max_plmns=3)


def plmn(i: int) -> PLMN:
    return PLMN("001", f"{i:02d}")


class TestDimensioning:
    def test_prbs_for_throughput_ceils(self, enb):
        per_prb = enb.throughput_per_prb()
        assert enb.prbs_for_throughput(per_prb * 3.2) == 4

    def test_minimum_one_prb(self, enb):
        assert enb.prbs_for_throughput(0.001) == 1

    def test_nonpositive_throughput_rejected(self, enb):
        with pytest.raises(RanConfigError):
            enb.prbs_for_throughput(0.0)

    def test_bad_reference_cqi_rejected(self):
        with pytest.raises(RanConfigError):
            ENodeB("x", reference_cqi=0)


class TestMocn:
    def test_install_broadcasts_plmn(self, enb):
        enb.install_slice("s1", plmn(1), nominal_prbs=10, effective_prbs=10)
        assert enb.broadcasts("00101")
        assert enb.installed_slices() == ["s1"]

    def test_plmn_limit_enforced(self, enb):
        for i in range(3):
            enb.install_slice(f"s{i}", plmn(i + 1), 5, 5)
        with pytest.raises(RanConfigError):
            enb.install_slice("s4", plmn(4), 5, 5)

    def test_duplicate_slice_rejected(self, enb):
        enb.install_slice("s1", plmn(1), 5, 5)
        with pytest.raises(RanConfigError):
            enb.install_slice("s1", plmn(2), 5, 5)

    def test_duplicate_plmn_rejected(self, enb):
        enb.install_slice("s1", plmn(1), 5, 5)
        with pytest.raises(RanConfigError):
            enb.install_slice("s2", plmn(1), 5, 5)

    def test_remove_frees_plmn_and_prbs(self, enb):
        enb.install_slice("s1", plmn(1), 10, 10)
        enb.remove_slice("s1")
        assert not enb.broadcasts("00101")
        assert enb.grid.free_prbs == 100

    def test_remove_unknown_rejected(self, enb):
        with pytest.raises(RanConfigError):
            enb.remove_slice("ghost")

    def test_resize_slice(self, enb):
        enb.install_slice("s1", plmn(1), 20, 20)
        enb.renominate_slice("s1", 20, 10)
        assert enb.grid.reservation("s1").effective == 10
        assert enb.grid.reservation("s1").nominal == 20


class TestUes:
    def test_register_requires_installed_slice(self, enb):
        ue = UserEquipment(plmn(1), "s1")
        with pytest.raises(RanConfigError):
            enb.register_ue(ue)

    def test_register_and_count(self, enb):
        enb.install_slice("s1", plmn(1), 5, 5)
        ue = UserEquipment(plmn(1), "s1")
        enb.register_ue(ue)
        assert enb._ues["s1"] == [ue]
        assert not ue.attached  # not attached yet

    def test_remove_slice_detaches_ues(self, enb):
        enb.install_slice("s1", plmn(1), 5, 5)
        ue = UserEquipment(plmn(1), "s1")
        enb.register_ue(ue)
        ue.start_search()
        ue.found_cell("enb1")
        ue.attach_complete(0.1)
        enb.remove_slice("s1")
        assert not ue.attached


class TestSliceCapacity:
    def test_utilization_snapshot(self, enb):
        enb.install_slice("s1", plmn(1), 20, 10)
        snap = enb.utilization()
        assert snap["effective_reserved"] == 10
        assert snap["nominal_reserved"] == 20
        assert snap["plmns"] == ["00101"]
        assert snap["overbooking_ratio"] == pytest.approx(0.2)
