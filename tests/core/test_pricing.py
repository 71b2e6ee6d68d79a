"""Tests for the revenue ledger."""

from __future__ import annotations

import pytest

from repro.core.pricing import LedgerError, RevenueLedger
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
    assert ledger._entries["s1"].violation_epochs == 2


def test_penalty_on_unknown_slice_rejected(ledger):
    with pytest.raises(LedgerError):
        ledger.book_penalty("ghost", 1.0)


def test_negative_penalty_rejected(ledger):
    ledger.book_admission("s1", make_request())
    with pytest.raises(LedgerError):
        ledger.book_penalty("s1", -1.0)


def test_rejections_tracked_separately(ledger):
    request = make_request(price=70.0)
    ledger.book_rejection(request)
    assert ledger.rejections == 1
    assert ledger.rejected_revenue == 70.0
    assert ledger.gross_revenue == 0.0


def test_rejection_totals_are_exact(ledger):
    prices = [float(i % 7) + 0.1 for i in range(1029)]
    for price in prices:
        ledger.book_rejection(make_request(price=price))
    assert ledger.rejections == len(prices)
    assert ledger.rejected_revenue == pytest.approx(sum(prices))


def test_acceptance_ratio(ledger):
    ledger.book_admission("s1", make_request())
    ledger.book_rejection(make_request())
    assert ledger.acceptance_ratio() == pytest.approx(0.5)


def test_acceptance_ratio_no_decisions(ledger):
    assert ledger.acceptance_ratio() == 0.0


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
