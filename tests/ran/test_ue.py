"""Tests for the UE model."""

from __future__ import annotations

import pytest

from repro.core.slices import PLMN
from repro.ran.ue import AttachState, UeError, UserEquipment


@pytest.fixture
def ue():
    return UserEquipment(PLMN("001", "01"), "s1")


def test_imsi_derived_from_plmn(ue):
    assert ue.imsi.startswith("00101")
    assert len(ue.imsi) == 15


def test_imsis_unique():
    plmn = PLMN("001", "01")
    a = UserEquipment(plmn, "s1")
    b = UserEquipment(plmn, "s1")
    assert a.imsi != b.imsi


def test_explicit_bad_imsi_rejected():
    with pytest.raises(UeError):
        UserEquipment(PLMN("001", "01"), "s1", imsi="123")


def test_attach_flow(ue):
    ue.start_search()
    assert ue.state is AttachState.SEARCHING
    ue.found_cell("enb1")
    assert ue.state is AttachState.ATTACHING
    ue.attach_complete(0.05)
    assert ue.attached
    assert ue.serving_enb == "enb1"
    assert ue.attach_latency_s == 0.05


def test_cannot_skip_states(ue):
    with pytest.raises(UeError):
        ue.found_cell("enb1")
    with pytest.raises(UeError):
        ue.attach_complete(0.1)


def test_cannot_search_while_attached(ue):
    ue.start_search()
    ue.found_cell("enb1")
    ue.attach_complete(0.1)
    with pytest.raises(UeError):
        ue.start_search()


def test_detach_then_reattach(ue):
    ue.start_search()
    ue.found_cell("enb1")
    ue.attach_complete(0.1)
    ue.detach()
    assert ue.state is AttachState.DETACHED
    assert ue.serving_enb is None
    ue.start_search()
    assert ue.state is AttachState.SEARCHING


def test_negative_attach_latency_rejected(ue):
    ue.start_search()
    ue.found_cell("enb1")
    with pytest.raises(UeError):
        ue.attach_complete(-0.1)


def test_cqi_reports_in_range(ue):
    assert 0 <= ue.channel.cqi() <= 15
