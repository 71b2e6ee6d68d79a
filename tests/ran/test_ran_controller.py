"""Tests for the RAN domain controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.slices import PLMN
from repro.ran.controller import RanController
from repro.ran.enb import ENodeB, RanConfigError
from repro.ran.scheduler import SchedulerError
from tests.conftest import free_prbs, serve_slices


@pytest.fixture
def controller():
    return RanController([ENodeB("enb1"), ENodeB("enb2")])


def plmn(i: int) -> PLMN:
    return PLMN("001", f"{i:02d}")


class TestInventory:
    def test_duplicate_enb_rejected(self, controller):
        with pytest.raises(RanConfigError):
            controller.add_enb(ENodeB("enb1"))

    def test_unknown_enb_rejected(self, controller):
        with pytest.raises(RanConfigError):
            controller.enb("ghost")

    def test_free_prbs_per_cell(self, controller):
        assert free_prbs(controller) == {"enb1": 100, "enb2": 100}


class TestInstall:
    def test_install_picks_emptiest_cell(self, controller):
        a = controller.install_slice("s1", plmn(1), throughput_mbps=20.0)
        b = controller.install_slice("s2", plmn(2), throughput_mbps=20.0)
        assert {a.enb_id, b.enb_id} == {"enb1", "enb2"}

    def test_explicit_target_cell(self, controller):
        allocation = controller.install_slice(
            "s1", plmn(1), throughput_mbps=10.0, enb_id="enb2"
        )
        assert allocation.enb_id == "enb2"
        assert controller.serving_enb_of("s1") == "enb2"

    def test_effective_fraction_applied(self, controller):
        allocation = controller.install_slice(
            "s1", plmn(1), throughput_mbps=20.0, effective_fraction=0.5
        )
        assert allocation.effective_prbs == max(1, round(allocation.nominal_prbs * 0.5))

    def test_no_capacity_anywhere_rejected(self, controller):
        with pytest.raises(RanConfigError):
            controller.install_slice("s1", plmn(1), throughput_mbps=1_000.0)

    def test_duplicate_slice_rejected(self, controller):
        controller.install_slice("s1", plmn(1), 10.0)
        with pytest.raises(RanConfigError):
            controller.install_slice("s1", plmn(2), 10.0)

    def test_plmn_slots_bound_install(self):
        controller = RanController([ENodeB("enb1", max_plmns=2)])
        controller.install_slice("s1", plmn(1), 1.0)
        controller.install_slice("s2", plmn(2), 1.0)
        with pytest.raises(RanConfigError):
            controller.install_slice("s3", plmn(3), 1.0)

    def test_bad_fraction_rejected(self, controller):
        with pytest.raises(RanConfigError):
            controller.install_slice("s1", plmn(1), 10.0, effective_fraction=0.0)


class TestLifecycle:
    def test_remove_frees_resources(self, controller):
        controller.install_slice("s1", plmn(1), 20.0)
        controller.remove_slice("s1")
        assert controller.serving_enb_of("s1") is None
        assert free_prbs(controller) == {"enb1": 100, "enb2": 100}

    def test_remove_unknown_rejected(self, controller):
        with pytest.raises(RanConfigError):
            controller.remove_slice("ghost")

    def test_resize(self, controller):
        allocation = controller.install_slice("s1", plmn(1), 20.0)
        shrunk = controller.modify_slice("s1", 20.0, 0.5)
        reservation = controller.enb(allocation.enb_id).grid.reservation("s1")
        assert reservation.nominal == shrunk.nominal_prbs == allocation.nominal_prbs
        assert reservation.effective == shrunk.effective_prbs
        assert shrunk.effective_prbs == round(allocation.nominal_prbs * 0.5)

    def test_resize_unknown_rejected(self, controller):
        with pytest.raises(RanConfigError):
            controller.modify_slice("ghost", 5.0, 0.5)


class TestServeEpoch:
    def test_delivered_caps_at_demand(self, controller):
        controller.install_slice("s1", plmn(1), 20.0)
        delivered = serve_slices(controller, {"s1": 5.0})
        assert delivered["s1"] == pytest.approx(5.0, rel=0.01)

    def test_two_slices_one_cell_share(self, controller):
        controller.install_slice("s1", plmn(1), 20.0, enb_id="enb1")
        controller.install_slice("s2", plmn(2), 20.0, enb_id="enb1")
        delivered = serve_slices(controller, {"s1": 20.0, "s2": 20.0})
        assert delivered["s1"] == pytest.approx(20.0, rel=0.05)
        assert delivered["s2"] == pytest.approx(20.0, rel=0.05)

    def test_overbooked_cell_shortfall_on_simultaneous_peaks(self, controller):
        """Two slices nominal 30 Mb/s each, shrunk to 50%: simultaneous
        full-rate demand cannot both be served at nominal."""
        controller.install_slice("s1", plmn(1), 30.0, effective_fraction=0.5, enb_id="enb1")
        controller.install_slice("s2", plmn(2), 30.0, effective_fraction=0.5, enb_id="enb1")
        controller.install_slice("s3", plmn(3), 30.0, effective_fraction=0.5, enb_id="enb1")
        delivered = serve_slices(controller, {"s1": 30.0, "s2": 30.0, "s3": 30.0})
        cell = controller.enb("enb1")
        total_capacity = cell.grid.total_prbs * cell.throughput_per_prb()
        assert sum(delivered.values()) <= total_capacity * 1.01
        assert any(d < 30.0 for d in delivered.values())

    def test_empty_epoch(self, controller):
        assert serve_slices(controller, {}) == {}

    def test_rows_reserving_more_than_their_cell_are_refused(self, controller):
        cell = controller.cell_of("enb1")
        with pytest.raises(SchedulerError, match="exceed cell budget"):
            controller.serve_epoch(
                ["s1", "s2"], np.array([cell, cell]), np.array([1.0, 1.0]),
                np.array([60, 60]), np.array([1, 1]),
            )
        assert controller.cell_of("ghost") == -1

    def test_utilization_aggregates(self, controller):
        controller.install_slice("s1", plmn(1), 20.0)
        snap = controller.utilization()
        assert snap["domain"] == "ran"
        assert snap["total_prbs"] == 200
        assert snap["effective_reserved"] > 0
