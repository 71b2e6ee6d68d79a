"""Tests for the slice model: SLA, PLMN pool, request, state machine."""

from __future__ import annotations

import pytest

from repro.core.slices import (
    PLMN,
    IllegalTransition,
    NetworkSlice,
    PlmnPool,
    PlmnPoolExhausted,
    SLA,
    ServiceType,
    SliceError,
    SliceState,
)
from tests.conftest import make_request


class TestPlmn:
    def test_plmn_id_concatenates(self):
        assert PLMN("001", "01").plmn_id == "00101"

    def test_three_digit_mnc(self):
        assert PLMN("310", "410").plmn_id == "310410"

    def test_bad_mcc_rejected(self):
        with pytest.raises(SliceError):
            PLMN("01", "01")
        with pytest.raises(SliceError):
            PLMN("abc", "01")

    def test_bad_mnc_rejected(self):
        with pytest.raises(SliceError):
            PLMN("001", "1")
        with pytest.raises(SliceError):
            PLMN("001", "0001")

    def test_str(self):
        assert str(PLMN("001", "02")) == "00102"


class TestPlmnPool:
    def test_capacity_and_available(self):
        pool = PlmnPool(size=4)
        assert pool.capacity == 4
        assert pool.available == 4

    def test_allocate_reduces_available(self):
        pool = PlmnPool(size=3)
        pool.allocate("s1")
        assert pool.available == 2

    def test_allocations_are_distinct(self):
        pool = PlmnPool(size=3)
        plmns = {pool.allocate(f"s{i}").plmn_id for i in range(3)}
        assert len(plmns) == 3

    def test_exhaustion_raises(self):
        pool = PlmnPool(size=1)
        pool.allocate("s1")
        with pytest.raises(PlmnPoolExhausted):
            pool.allocate("s2")

    def test_release_returns_identity(self):
        pool = PlmnPool(size=1)
        plmn = pool.allocate("s1")
        pool.release("s1")
        assert pool.available == 1
        assert pool.allocate("s2").plmn_id == plmn.plmn_id

    def test_double_allocate_same_slice_rejected(self):
        pool = PlmnPool(size=2)
        pool.allocate("s1")
        with pytest.raises(SliceError):
            pool.allocate("s1")

    def test_release_unknown_rejected(self):
        with pytest.raises(SliceError):
            PlmnPool(size=2).release("ghost")

    def test_holder_of(self):
        pool = PlmnPool(size=2)
        plmn = pool.allocate("s1")
        assert pool.holder_of(plmn.plmn_id) == "s1"
        assert pool.holder_of("99999") is None

    def test_zero_size_rejected(self):
        with pytest.raises(SliceError):
            PlmnPool(size=0)

    def test_a_pool_builds_an_identity_only_when_it_hands_one_out(self, monkeypatch):
        built = []
        real = PLMN.__post_init__

        def counted(plmn):
            built.append(plmn.plmn_id)
            real(plmn)

        monkeypatch.setattr(PLMN, "__post_init__", counted)
        pool = PlmnPool(size=1024)
        assert built == []
        assert pool.capacity == pool.available == 1024
        pool.claim("s1", "001512")
        pool.allocate("s2")
        assert built == ["001512", "00101"]

    def test_identities_roll_into_the_next_mcc_past_999_mncs(self):
        """Hand-out order and claim-by-id across the 3-digit MNCs and
        the MCC rollover, against the identities written out."""
        size, first_mnc = 1_210, 5
        expected = [
            f"{(1 + ordinal // 1000) % 1000:03d}{ordinal % 1000:02d}"
            for ordinal in range(first_mnc, first_mnc + size)
        ]
        pool = PlmnPool(size=size, first_mnc=first_mnc)
        claimed = expected[1_100]  # "002105": out of order, second MCC
        assert pool.claim("early", claimed).plmn_id == claimed
        order = [pool.allocate(f"s{i}").plmn_id for i in range(size - 1)]
        assert order == [p for p in expected if p != claimed]
        with pytest.raises(PlmnPoolExhausted):
            pool.allocate("one-too-many")
        pool.release("s3")
        pool.release("early")
        assert [pool.allocate(f"again-{i}").plmn_id for i in range(2)] == [
            expected[3], claimed
        ]
        for unknown in ("00104", "002215", "0010005", "00199x", "001"):
            assert pool.holder_of(unknown) is None
            with pytest.raises(SliceError, match="not managed"):
                pool.claim("ghost", unknown)


class TestSla:
    def test_valid_sla(self):
        sla = SLA(throughput_mbps=10, max_latency_ms=20, duration_s=60)
        assert sla.availability == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"throughput_mbps": 0, "max_latency_ms": 20, "duration_s": 60},
            {"throughput_mbps": 10, "max_latency_ms": 0, "duration_s": 60},
            {"throughput_mbps": 10, "max_latency_ms": 20, "duration_s": 0},
            {"throughput_mbps": -5, "max_latency_ms": 20, "duration_s": 60},
            {"throughput_mbps": 10, "max_latency_ms": 20, "duration_s": 60, "availability": 0.0},
            {"throughput_mbps": 10, "max_latency_ms": 20, "duration_s": 60, "availability": 1.5},
        ],
    )
    def test_invalid_sla_rejected(self, kwargs):
        with pytest.raises(SliceError):
            SLA(**kwargs)

    def test_sla_is_frozen(self):
        sla = SLA(throughput_mbps=10, max_latency_ms=20, duration_s=60)
        with pytest.raises(AttributeError):
            sla.throughput_mbps = 99


class TestSliceRequest:
    def test_auto_request_id(self):
        r1 = make_request()
        r2 = make_request()
        assert r1.request_id != r2.request_id
        assert r1.request_id.startswith("req-")

    def test_negative_price_rejected(self):
        with pytest.raises(SliceError):
            make_request(price=-1.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(SliceError):
            make_request(penalty_rate=-1.0)

    def test_expiry_time(self):
        request = make_request(duration_s=100.0, arrival_time=50.0)
        assert request.expiry_time == 150.0

    def test_price_density(self):
        request = make_request(throughput_mbps=10.0, duration_s=100.0, price=500.0)
        assert request.price_density() == pytest.approx(0.5)

    def test_zero_users_rejected(self):
        with pytest.raises(SliceError):
            make_request(n_users=0)


class TestStateMachine:
    def test_initial_state_pending(self):
        s = NetworkSlice(make_request())
        assert s.state is SliceState.PENDING
        assert not s.is_terminal

    def test_happy_path(self):
        s = NetworkSlice(make_request())
        s.transition(SliceState.ADMITTED, 1.0)
        s.transition(SliceState.DEPLOYING, 2.0)
        s.transition(SliceState.ACTIVE, 3.0)
        s.transition(SliceState.EXPIRED, 10.0)
        assert s.is_terminal
        assert s.admitted_at == 1.0
        assert s.active_at == 3.0
        assert s.expired_at == 10.0

    def test_rejection_path(self):
        s = NetworkSlice(make_request())
        s.transition(SliceState.REJECTED, 1.0)
        assert s.is_terminal

    def test_failure_from_active(self):
        s = NetworkSlice(make_request())
        s.transition(SliceState.ADMITTED, 1.0)
        s.transition(SliceState.DEPLOYING, 1.5)
        s.transition(SliceState.ACTIVE, 2.0)
        s.transition(SliceState.FAILED, 3.0)
        assert s.is_terminal

    @pytest.mark.parametrize(
        "bad_target",
        [SliceState.ACTIVE, SliceState.EXPIRED, SliceState.DEPLOYING],
    )
    def test_illegal_from_pending(self, bad_target):
        s = NetworkSlice(make_request())
        with pytest.raises(IllegalTransition):
            s.transition(bad_target, 1.0)

    def test_no_transition_out_of_terminal(self):
        s = NetworkSlice(make_request())
        s.transition(SliceState.REJECTED, 1.0)
        with pytest.raises(IllegalTransition):
            s.transition(SliceState.ADMITTED, 2.0)

    def test_history_records_transitions(self):
        s = NetworkSlice(make_request(arrival_time=0.5))
        s.transition(SliceState.ADMITTED, 1.0)
        assert s.history == [(0.5, SliceState.PENDING), (1.0, SliceState.ADMITTED)]

    def test_end_time_requires_activation(self):
        s = NetworkSlice(make_request(duration_s=60.0))
        assert s.end_time() is None
        s.transition(SliceState.ADMITTED, 1.0)
        s.transition(SliceState.DEPLOYING, 1.5)
        s.transition(SliceState.ACTIVE, 2.0)
        assert s.end_time() == 62.0


class TestEpochAccounting:
    def test_violation_ratio(self):
        s = NetworkSlice(make_request())
        s.record_epoch(False)
        s.record_epoch(True)
        s.record_epoch(True)
        s.record_epoch(False)
        assert s.violation_ratio() == pytest.approx(0.5)

    def test_violation_ratio_zero_when_unserved(self):
        assert NetworkSlice(make_request()).violation_ratio() == 0.0

    def test_to_dict_is_json_friendly(self):
        import json

        s = NetworkSlice(make_request())
        assert json.dumps(s.to_dict())

    def test_slice_id_derived_from_request(self):
        request = make_request()
        s = NetworkSlice(request)
        assert s.slice_id == request.request_id.replace("req-", "slice-")


def test_service_type_values():
    assert {t.value for t in ServiceType} == {
        "embb",
        "urllc",
        "mmtc",
        "automotive",
        "ehealth",
    }
