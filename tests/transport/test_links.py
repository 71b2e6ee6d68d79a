"""Tests for transport links."""

from __future__ import annotations

import pytest

from repro.transport.links import (
    DEFAULT_LINK_SPECS,
    Link,
    LinkError,
    LinkKind,
    LinkState,
)


@pytest.fixture
def link():
    return Link("l1", "a", "b", LinkKind.MMWAVE, capacity_mbps=100.0, delay_ms=1.0)


class TestConstruction:
    def test_defaults_from_kind(self):
        link = Link("l1", "a", "b", LinkKind.MICROWAVE)
        cap, delay = DEFAULT_LINK_SPECS[LinkKind.MICROWAVE]
        assert link.capacity_mbps == cap
        assert link.delay_ms == delay

    def test_bad_capacity_rejected(self):
        with pytest.raises(LinkError):
            Link("l1", "a", "b", capacity_mbps=0.0)

    def test_bad_delay_rejected(self):
        with pytest.raises(LinkError):
            Link("l1", "a", "b", delay_ms=-1.0)


class TestReservations:
    def test_reserve_reduces_residual(self, link):
        link.reserve("s1", nominal_mbps=40.0, effective_mbps=30.0)
        assert link.residual_mbps == pytest.approx(70.0)
        assert link.nominal_reserved_mbps == pytest.approx(40.0)
        assert link.has("s1")

    def test_over_capacity_rejected(self, link):
        link.reserve("s1", 80.0, 80.0)
        with pytest.raises(LinkError):
            link.reserve("s2", 30.0, 30.0)

    def test_nominal_overbooking_allowed(self, link):
        link.reserve("s1", 80.0, 50.0)
        link.reserve("s2", 80.0, 50.0)
        assert link.nominal_reserved_mbps == pytest.approx(160.0)
        assert link.residual_mbps == pytest.approx(0.0)

    def test_effective_above_nominal_rejected(self, link):
        with pytest.raises(LinkError):
            link.reserve("s1", 10.0, 11.0)

    def test_duplicate_rejected(self, link):
        link.reserve("s1", 10.0, 10.0)
        with pytest.raises(LinkError):
            link.reserve("s1", 5.0, 5.0)

    def test_release(self, link):
        link.reserve("s1", 10.0, 10.0)
        link.release("s1")
        assert link.residual_mbps == pytest.approx(100.0)
        with pytest.raises(LinkError):
            link.release("s1")

    def test_resize(self, link):
        link.reserve("s1", 40.0, 40.0)
        link.renominate("s1", 40.0, 20.0)
        assert link.residual_mbps == pytest.approx(80.0)
        with pytest.raises(LinkError):
            link.renominate("s1", 40.0, 41.0)  # above nominal
        link.renominate("s1", 40.0, 40.0)
        assert link.residual_mbps == pytest.approx(60.0)

    def test_resize_unknown_rejected(self, link):
        with pytest.raises(LinkError):
            link.renominate("ghost", 5.0, 5.0)


class TestFailureInjection:
    def test_down_link_has_zero_residual(self, link):
        link.fail()
        assert link.state is LinkState.DOWN
        assert link.residual_mbps == 0.0
        assert not link.up

    def test_reserve_on_down_link_rejected(self, link):
        link.fail()
        with pytest.raises(LinkError):
            link.reserve("s1", 1.0, 1.0)

    def test_restore_recovers_reservations(self, link):
        link.reserve("s1", 30.0, 30.0)
        link.fail()
        link.restore()
        assert link.residual_mbps == pytest.approx(70.0)

    def test_utilization_snapshot(self, link):
        link.reserve("s1", 30.0, 20.0)
        snap = link.utilization()
        assert snap["effective_reserved_mbps"] == pytest.approx(20.0)
        assert snap["slices"] == ["s1"]
        assert snap["state"] == "up"
