"""Fixed-bucket latency histogram: bucket placement, quantile
estimation, the lock-free write path, and cross-label merging."""

from __future__ import annotations

import pytest

from repro.obs.histogram import DEFAULT_BUCKETS_MS, LatencyHistogram


class TestBucketCorrectness:
    def test_observation_lands_in_first_bucket_with_bound_gte_value(self):
        hist = LatencyHistogram("x", buckets_ms=(1.0, 10.0, 100.0))
        hist.observe(0.5)   # <= 1.0
        hist.observe(1.0)   # boundary: still the 1.0 bucket (le semantics)
        hist.observe(5.0)   # <= 10.0
        hist.observe(99.0)  # <= 100.0
        hist.observe(500.0)  # overflow -> +Inf
        buckets = dict(hist.bucket_counts())
        assert buckets[1.0] == 2
        assert buckets[10.0] == 3
        assert buckets[100.0] == 4
        assert buckets[float("inf")] == 5

    def test_cumulative_counts_are_monotone(self):
        hist = LatencyHistogram("x")
        for v in (0.01, 0.3, 7.0, 80.0, 3_000.0, 99_999.0):
            hist.observe(v)
        counts = [c for _, c in hist.bucket_counts()]
        assert counts == sorted(counts)
        assert counts[-1] == 6

    def test_aggregates(self):
        hist = LatencyHistogram("x")
        for v in (2.0, 4.0, 6.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.to_dict()["sum_ms"] == pytest.approx(12.0)
        assert hist.to_dict()["max_ms"] == pytest.approx(6.0)
        assert hist.to_dict()["min_ms"] == pytest.approx(2.0)
        data = hist.to_dict()
        assert data["mean_ms"] == pytest.approx(4.0)

    def test_empty_histogram_is_all_zeros(self):
        data = LatencyHistogram("x").to_dict()
        assert data["count"] == 0
        assert data["p50_ms"] == 0.0
        assert data["min_ms"] == 0.0
        assert data["max_ms"] == 0.0

    def test_default_bounds_are_sorted(self):
        assert list(DEFAULT_BUCKETS_MS) == sorted(DEFAULT_BUCKETS_MS)


class TestQuantiles:
    def test_quantiles_interpolate_within_crossing_bucket(self):
        hist = LatencyHistogram("x", buckets_ms=(10.0, 20.0, 30.0))
        for _ in range(100):
            hist.observe(15.0)  # all in the (10, 20] bucket
        p50 = hist.quantile(0.50)
        assert 10.0 < p50 <= 20.0

    def test_quantile_never_exceeds_observed_max(self):
        hist = LatencyHistogram("x", buckets_ms=(10.0, 1_000.0))
        for _ in range(10):
            hist.observe(12.0)
        assert hist.quantile(0.99) <= 12.0

    def test_overflow_bucket_quantile_reports_max(self):
        hist = LatencyHistogram("x", buckets_ms=(1.0,))
        hist.observe(50.0)
        hist.observe(70.0)
        assert hist.quantile(0.99) == pytest.approx(70.0)


class TestLockFreeWritePath:
    def test_reads_fold_pending_observations(self):
        # observe() folds into the buckets at once: every read-side
        # accessor sees it, with nothing left pending.
        hist = LatencyHistogram("x")
        hist.observe(1.0)
        assert hist.count == 1
        assert dict(hist.bucket_counts())[1.0] == 1

    def test_concurrent_writers_and_readers_lose_nothing(self):
        # Writers and readers interleaved on the shard's one thread.
        hist = LatencyHistogram("x")
        per_writer = 10_000
        for i in range(4 * per_writer):
            hist.observe(0.25)
            if i % 400 == 0:
                hist.to_dict()
                hist.quantile(0.99)
        assert hist.count == 4 * per_writer
        assert hist.to_dict()["sum_ms"] == pytest.approx(4 * per_writer * 0.25)


class TestMerge:
    def test_merge_folds_counts_and_aggregates(self):
        a = LatencyHistogram("driver.prepare", label="ran")
        b = LatencyHistogram("driver.prepare", label="epc")
        merged = LatencyHistogram("driver.prepare")
        a.observe(1.0)
        a.observe(100.0)
        b.observe(0.1)
        a.merge_into(merged)
        b.merge_into(merged)
        assert merged.count == 3
        assert merged.to_dict()["max_ms"] == pytest.approx(100.0)
        assert merged.to_dict()["min_ms"] == pytest.approx(0.1)
        assert merged.to_dict()["sum_ms"] == pytest.approx(101.1)

    def test_merge_rejects_mismatched_bounds(self):
        a = LatencyHistogram("x", buckets_ms=(1.0, 2.0))
        b = LatencyHistogram("x", buckets_ms=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge_into(b)
