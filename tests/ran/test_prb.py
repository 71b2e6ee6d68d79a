"""Tests for PRB grid accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ran.prb import PrbError, PrbGrid, prbs_for_bandwidth


class TestGridTable:
    @pytest.mark.parametrize(
        "mhz,prbs", [(1.4, 6), (3.0, 15), (5.0, 25), (10.0, 50), (15.0, 75), (20.0, 100)]
    )
    def test_standard_bandwidths(self, mhz, prbs):
        assert prbs_for_bandwidth(mhz) == prbs

    def test_nonstandard_rejected(self):
        with pytest.raises(PrbError):
            prbs_for_bandwidth(7.0)


class TestReservations:
    def test_reserve_and_query(self):
        grid = PrbGrid(10.0)
        grid.reserve("s1", nominal=20, effective=15)
        assert grid.effective_reserved == 15
        assert grid.nominal_reserved == 20
        assert grid.free_prbs == 35
        assert grid.has("s1")

    def test_duplicate_rejected(self):
        grid = PrbGrid(10.0)
        grid.reserve("s1", 10, 10)
        with pytest.raises(PrbError):
            grid.reserve("s1", 5, 5)

    def test_effective_cannot_exceed_budget(self):
        grid = PrbGrid(10.0)  # 50 PRBs
        grid.reserve("s1", 40, 40)
        with pytest.raises(PrbError):
            grid.reserve("s2", 20, 20)
        # But nominal overbooking is fine as long as effective fits.
        grid.reserve("s2", 20, 10)
        assert grid.overbooking_ratio == pytest.approx(60 / 50)

    def test_effective_cannot_exceed_nominal(self):
        grid = PrbGrid(10.0)
        with pytest.raises(PrbError):
            grid.reserve("s1", nominal=10, effective=11)

    def test_zero_prbs_rejected(self):
        grid = PrbGrid(10.0)
        with pytest.raises(PrbError):
            grid.reserve("s1", 0, 0)

    def test_release(self):
        grid = PrbGrid(10.0)
        grid.reserve("s1", 20, 20)
        grid.release("s1")
        assert grid.free_prbs == 50
        assert not grid.has("s1")

    def test_release_unknown_rejected(self):
        with pytest.raises(PrbError):
            PrbGrid(10.0).release("ghost")

    def test_reservation_lookup(self):
        grid = PrbGrid(10.0)
        grid.reserve("s1", 20, 15)
        r = grid.reservation("s1")
        assert (r.nominal, r.effective) == (20, 15)
        with pytest.raises(PrbError):
            grid.reservation("ghost")


class TestResize:
    def test_resize_down_then_up(self):
        grid = PrbGrid(10.0)
        grid.reserve("s1", 30, 30)
        grid.renominate("s1", 30, 10)
        assert grid.effective_reserved == 10
        grid.renominate("s1", 30, 30)
        assert grid.effective_reserved == 30
        assert grid.nominal_reserved == 30

    def test_resize_above_nominal_rejected(self):
        grid = PrbGrid(10.0)
        grid.reserve("s1", 30, 20)
        with pytest.raises(PrbError):
            grid.renominate("s1", 30, 31)
        assert grid.reservation("s1").effective == 20

    def test_resize_that_does_not_fit_rejected(self):
        grid = PrbGrid(10.0)
        grid.reserve("s1", 40, 20)
        grid.reserve("s2", 30, 30)
        with pytest.raises(PrbError):
            grid.renominate("s1", 40, 25)
        assert grid.reservation("s1").effective == 20

    def test_resize_unknown_rejected(self):
        with pytest.raises(PrbError):
            PrbGrid(10.0).renominate("ghost", 5, 5)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["reserve", "release", "resize"]),
            st.integers(min_value=0, max_value=7),  # slice index
            st.integers(min_value=1, max_value=60),  # nominal
            st.integers(min_value=1, max_value=60),  # effective
        ),
        max_size=40,
    )
)
def test_property_effective_never_exceeds_budget(ops):
    """Whatever legal/illegal op sequence we throw at the grid, the
    physical-budget invariant holds after every step."""
    grid = PrbGrid(10.0)
    for op, idx, nominal, effective in ops:
        slice_id = f"s{idx}"
        try:
            if op == "reserve":
                grid.reserve(slice_id, nominal, min(effective, nominal))
            elif op == "release":
                grid.release(slice_id)
            else:
                grid.renominate(
                    slice_id, grid.reservation(slice_id).nominal, effective
                )
        except PrbError:
            pass
        grid.check_invariants()
        assert grid.effective_reserved + grid.free_prbs == grid.total_prbs
