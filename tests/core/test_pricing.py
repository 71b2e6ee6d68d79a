"""Tests for the revenue ledger."""

from __future__ import annotations

import pytest

from repro.core.pricing import RECENT_REJECTIONS, LedgerError, RevenueLedger
from tests.conftest import make_request


@pytest.fixture
def ledger():
    return RevenueLedger()


def test_admission_books_price(ledger):
    ledger.book_admission("s1", make_request(price=50.0))
    assert ledger.gross_revenue == 50.0
    assert ledger.net_revenue == 50.0
    assert ledger.admissions == 1


def test_double_booking_rejected(ledger):
    ledger.book_admission("s1", make_request())
    with pytest.raises(LedgerError):
        ledger.book_admission("s1", make_request())


def test_penalty_reduces_net(ledger):
    ledger.book_admission("s1", make_request(price=100.0))
    ledger.book_penalty("s1", 10.0)
    ledger.book_penalty("s1", 5.0)
    assert ledger.total_penalties == 15.0
    assert ledger.net_revenue == 85.0
    assert ledger.entry("s1").violation_epochs == 2


def test_penalty_on_unknown_slice_rejected(ledger):
    with pytest.raises(LedgerError):
        ledger.book_penalty("ghost", 1.0)


def test_negative_penalty_rejected(ledger):
    ledger.book_admission("s1", make_request())
    with pytest.raises(LedgerError):
        ledger.book_penalty("s1", -1.0)


def test_rejections_tracked_separately(ledger):
    request = make_request(price=70.0)
    ledger.book_rejection(request, "no capacity", at_time=5.0)
    assert ledger.rejections == 1
    assert ledger.rejected_revenue == 70.0
    assert ledger.gross_revenue == 0.0
    record = ledger.rejection_records()[0]
    assert record.reason == "no capacity"
    assert record.at_time == 5.0


def test_rejection_totals_are_exact_while_the_records_stay_bounded(ledger):
    prices = [float(i % 7) + 0.1 for i in range(RECENT_REJECTIONS + 5)]
    for i, price in enumerate(prices):
        ledger.book_rejection(make_request(price=price), f"r{i}", at_time=float(i))
    assert ledger.rejections == len(prices)
    assert ledger.rejected_revenue == pytest.approx(sum(prices))
    records = ledger.rejection_records()
    assert len(records) == RECENT_REJECTIONS
    assert [r.reason for r in records[:2]] == ["r5", "r6"]
    assert records[-1].at_time == float(len(prices) - 1)


def test_acceptance_ratio(ledger):
    ledger.book_admission("s1", make_request())
    ledger.book_rejection(make_request(), "full", 0.0)
    assert ledger.acceptance_ratio() == pytest.approx(0.5)


def test_acceptance_ratio_no_decisions(ledger):
    assert ledger.acceptance_ratio() == 0.0


def test_entry_lookup_unknown_rejected(ledger):
    with pytest.raises(LedgerError):
        ledger.entry("ghost")


def test_entry_net(ledger):
    ledger.book_admission("s1", make_request(price=20.0))
    ledger.book_penalty("s1", 3.0)
    assert ledger.entry("s1").net == pytest.approx(17.0)


def test_summary_keys(ledger):
    ledger.book_admission("s1", make_request(price=10.0))
    summary = ledger.summary()
    assert summary["gross_revenue"] == 10.0
    assert set(summary) == {
        "gross_revenue",
        "total_penalties",
        "net_revenue",
        "rejected_revenue",
        "admissions",
        "rejections",
        "acceptance_ratio",
    }


def test_multiple_slices_accumulate(ledger):
    for i, price in enumerate((10.0, 20.0, 30.0)):
        ledger.book_admission(f"s{i}", make_request(price=price))
    assert ledger.gross_revenue == 60.0
    assert ledger.admissions == 3
