"""Tests for vertical presets and the request generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.slices import ServiceType
from repro.sim.engine import Simulator
from repro.traffic.generator import RequestGenerator, RequestMix
from repro.traffic.verticals import VERTICALS, vertical_for


class TestVerticals:
    def test_every_service_type_has_preset(self):
        assert set(VERTICALS) == set(ServiceType)

    def test_sampled_request_within_ranges(self, rng):
        spec = vertical_for(ServiceType.EMBB)
        request = spec.sample_request("t", rng, arrival_time=5.0)
        lo, hi = spec.throughput_range_mbps
        assert lo <= request.sla.throughput_mbps <= hi
        lo, hi = spec.latency_range_ms
        assert lo <= request.sla.max_latency_ms <= hi
        assert request.arrival_time == 5.0
        assert request.price > 0
        assert request.penalty_rate > 0

    def test_urllc_latency_tighter_than_embb(self, rng):
        urllc = vertical_for(ServiceType.URLLC).sample_request("t", rng)
        embb = vertical_for(ServiceType.EMBB).sample_request("t", rng)
        assert urllc.sla.max_latency_ms < embb.sla.max_latency_ms

    def test_profile_peak_matches_request(self, rng):
        spec = vertical_for(ServiceType.EMBB)
        profile = spec.sample_profile(25.0, rng)
        assert profile.peak_mbps == 25.0

    def test_price_scales_with_throughput_and_duration(self, rng):
        spec = vertical_for(ServiceType.EMBB)
        rng1 = np.random.default_rng(0)
        requests = [spec.sample_request("t", rng1) for _ in range(50)]
        # Price per Mb/s-hour should be constant by construction.
        for request in requests:
            hours = request.sla.duration_s / 3_600.0
            implied = request.price / (request.sla.throughput_mbps * hours)
            assert implied == pytest.approx(spec.price_per_mbps_hour)


class TestMix:
    def test_default_mix_covers_all(self, rng):
        mix = RequestMix()
        drawn = {mix.sample_type(rng) for _ in range(500)}
        assert drawn == set(ServiceType)

    def test_single_mix(self, rng):
        mix = RequestMix.single(ServiceType.URLLC)
        assert {mix.sample_type(rng) for _ in range(50)} == {ServiceType.URLLC}

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            RequestMix(weights={})

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            RequestMix(weights={ServiceType.EMBB: 0.0})


class TestGenerator:
    def test_batch_respects_horizon(self, rng):
        generator = RequestGenerator(rng, arrival_rate_per_s=0.1)
        batch = generator.batch(horizon_s=1_000.0)
        assert all(0 <= req.arrival_time < 1_000.0 for req, _ in batch)
        assert generator.generated == len(batch)

    def test_rate_controls_count(self):
        slow = RequestGenerator(np.random.default_rng(1), arrival_rate_per_s=0.01)
        fast = RequestGenerator(np.random.default_rng(1), arrival_rate_per_s=0.1)
        assert len(fast.batch(10_000.0)) > len(slow.batch(10_000.0))

    def test_poisson_count_statistics(self):
        rng = np.random.default_rng(3)
        generator = RequestGenerator(rng, arrival_rate_per_s=0.05)
        n = len(generator.batch(100_000.0))
        assert 4_200 < n < 5_800  # λT = 5000 ± ~6σ

    def test_bad_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            RequestGenerator(rng, arrival_rate_per_s=0.0)

    def test_drive_schedules_on_simulator(self, rng):
        sim = Simulator()
        generator = RequestGenerator(rng, arrival_rate_per_s=0.05)
        received = []
        n = generator.drive(sim, 500.0, lambda req, prof: received.append(req))
        sim.run_until(500.0)
        assert len(received) == n
        arrival_times = [r.arrival_time for r in received]
        assert arrival_times == sorted(arrival_times)

    def test_deterministic_given_seed(self):
        a = RequestGenerator(np.random.default_rng(7), 0.05).batch(1_000.0)
        b = RequestGenerator(np.random.default_rng(7), 0.05).batch(1_000.0)
        assert [r.arrival_time for r, _ in a] == [r.arrival_time for r, _ in b]
        assert [r.sla.throughput_mbps for r, _ in a] == [
            r.sla.throughput_mbps for r, _ in b
        ]

