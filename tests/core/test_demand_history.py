"""A slice's demand history: capped at the tail its forecaster refits
on (``FORECAST_HISTORY_EPOCHS``), and the cap must be invisible to the
fit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.forecasting import Forecaster, HoltWintersForecaster, NaiveForecaster
from repro.core.epoch import FORECAST_HISTORY_EPOCHS, SliceRuntime
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.overbooking import FixedOverbooking, ForecastOverbooking, NoOverbooking
from repro.core.slices import slice_id_for
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.patterns import ConstantProfile, DiurnalProfile, OnOffProfile
from tests.conftest import make_request


class TestForecastTailRetention:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=700,
        )
    )
    def test_history_slides_exactly_when_the_cap_drops_a_sample(self, values):
        runtime = SliceRuntime(network_slice=None, profile=None)
        uncapped = []
        for epoch, value in enumerate(values):
            slid = runtime.push_demand(float(epoch), value)
            assert slid == (len(uncapped) >= FORECAST_HISTORY_EPOCHS)
            uncapped.append((float(epoch), value))
        assert list(runtime.demand_history) == uncapped[-FORECAST_HISTORY_EPOCHS:]

    def test_forecaster_is_fitted_on_the_uncapped_tail(self, testbed):
        fits = []  # (sim time, the array handed to fit)

        class Recording(NaiveForecaster):
            def fit(self, history):
                fits.append((sim.now, np.array(history, dtype=float)))
                return super().fit(history)

        sim = Simulator()
        orchestrator = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            overbooking=ForecastOverbooking(0.95),
            forecaster_factory=Recording,
            config=OrchestratorConfig(monitoring_epoch_s=1.0, deploy_time_s=0.5),
            streams=RandomStreams(seed=3),
        )
        orchestrator.start()
        request = make_request(duration_s=10_000.0)
        orchestrator.submit(request, ConstantProfile(20.0, level=0.5, noise_std=0.2))
        runtime = orchestrator.runtime(slice_id_for(request.request_id))
        shadow = []  # (epoch time, demand), uncapped
        epochs = FORECAST_HISTORY_EPOCHS + 120
        for epoch in range(1, epochs + 1):
            sim.run_until(epoch + 0.25)
            shadow.append((float(epoch), runtime.last_demand_mbps))
        assert len(shadow) == epochs
        assert len(runtime.demand_history) == FORECAST_HISTORY_EPOCHS
        # Refits from before the cap bites and from after it.
        assert len(fits[0][1]) < FORECAST_HISTORY_EPOCHS == len(fits[-1][1])
        for now, seen in fits:
            uncapped = np.array([v for t, v in shadow if t < now + 0.5])
            assert np.array_equal(seen, uncapped[-FORECAST_HISTORY_EPOCHS:])

    def test_streaming_equals_refitting_through_the_cap(self, tmp_path, monkeypatch):
        """Twin runs, overbooking on, well past the cap: one feeds the
        stock Holt-Winters a sample per epoch, the other's model declines
        every sample and is refitted on its history at every
        reconfiguration — the behaviour before ``update`` existed."""

        class Declining(HoltWintersForecaster):
            def update(self, value):
                return False

        fits = []  # (sim time, model) of every from-scratch fit
        plain_fit = Forecaster.fit

        def counted_fit(self, history):
            fits.append((sim.now, self))
            return plain_fit(self, history)

        monkeypatch.setattr(Forecaster, "fit", counted_fit)
        requests = [make_request(throughput_mbps=20.0, duration_s=10_000.0) for _ in range(3)]
        epochs = FORECAST_HISTORY_EPOCHS + 150
        outcomes = {}
        for label, factory in (
            ("stock", lambda: HoltWintersForecaster(season_length=24)),
            ("declining", lambda: Declining(season_length=24)),
        ):
            del fits[:]
            testbed = build_testbed(TestbedConfig())
            sim = Simulator()
            orchestrator = Orchestrator(
                sim=sim,
                allocator=testbed.allocator,
                plmn_pool=testbed.plmn_pool,
                overbooking=ForecastOverbooking(0.95),
                forecaster_factory=factory,
                config=OrchestratorConfig(
                    monitoring_epoch_s=1.0,
                    deploy_time_s=0.5,
                    durability_dir=str(tmp_path / label),
                    checkpoint_every_records=0,
                ),
                streams=RandomStreams(seed=3),
            )
            orchestrator.start()
            profiles = (
                ConstantProfile(20.0, level=0.5, noise_std=0.2),
                DiurnalProfile(20.0, period_s=120.0, noise_std=0.1),
                OnOffProfile(20.0, period_s=37.0, noise_std=0.1),
            )
            for request, profile in zip(requests, profiles):
                assert orchestrator.submit(request, profile).admitted
            sim.run_until(epochs + 0.75)
            runtimes = [
                orchestrator.runtime(slice_id_for(r.request_id)) for r in requests
            ]
            assert all(len(rt.demand_history) == FORECAST_HISTORY_EPOCHS for rt in runtimes)
            outcomes[label] = (
                [e.to_dict() for e in orchestrator.events.since(0)],
                [rt.effective_fraction for rt in runtimes],
                [r.to_line() for r in orchestrator.store.records()],
            )
            before_the_cap = [m for t, m in fits if t <= FORECAST_HISTORY_EPOCHS]
            per_model = {id(m): before_the_cap.count(m) for m in before_the_cap}
            if label == "stock":
                # Built at trust time, re-seeded once at two seasons.
                assert len(per_model) == 3 and max(per_model.values()) <= 2
            else:
                assert min(per_model.values()) > 50
        assert outcomes["stock"] == outcomes["declining"]
        reconfigured = [
            e for e in outcomes["stock"][0] if e["type"] == "slice.reconfigured"
        ]
        assert any(e["time"] > FORECAST_HISTORY_EPOCHS + 10 for e in reconfigured)
        assert any(e["time"] < FORECAST_HISTORY_EPOCHS for e in reconfigured)

    def test_forecaster_is_built_only_once_the_history_is_trusted(self, testbed):
        """Not at a slice's first epoch: a slice that never lives to be
        trusted (a re-adopted one about to expire) never pays for a model."""
        sim = Simulator()
        orchestrator = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            overbooking=ForecastOverbooking(0.95),
            config=OrchestratorConfig(
                monitoring_epoch_s=1.0, deploy_time_s=0.5, reconfig_every_epochs=1
            ),
            streams=RandomStreams(seed=3),
        )
        orchestrator.start()
        request = make_request(duration_s=10_000.0)
        orchestrator.submit(request, ConstantProfile(20.0, level=0.5))
        runtime = orchestrator.runtime(slice_id_for(request.request_id))
        trusted = orchestrator.config.min_history_for_forecast
        for epoch in range(1, trusted):
            sim.run_until(epoch + 0.25)
            assert len(runtime.demand_history) == epoch
            assert runtime.forecaster is None
        sim.run_until(trusted + 0.25)
        assert runtime.forecaster is not None


class Reading:
    """Mixed into a policy: ``decide`` reads the forecast, then discards it."""

    def decide(self, slice_id, nominal, forecaster=None):
        if forecaster is not None:
            forecaster.forecast_quantile(1, 0.95)
        return super().decide(slice_id, nominal, forecaster)


class ReadingNone(Reading, NoOverbooking):
    pass


class ReadingFixed(Reading, FixedOverbooking):
    pass


@pytest.mark.parametrize(
    "plain, reading",
    [(NoOverbooking, ReadingNone), (lambda: FixedOverbooking(1.5), lambda: ReadingFixed(1.5))],
    ids=["none", "fixed"],
)
def test_a_model_exists_because_a_policy_read_it(tmp_path, monkeypatch, plain, reading):
    """Twin durable runs well past the history cap: a policy that never
    reads a forecast builds, fits and folds no model; the same policy
    reading (and discarding) one fits each slice's at most twice before
    the cap bites — and the two runs agree on every event, fraction and
    journal line."""
    fits = []  # (sim time, model) of every from-scratch fit
    plain_fit = Forecaster.fit

    def counted_fit(self, history):
        fits.append((sim.now, self))
        return plain_fit(self, history)

    monkeypatch.setattr(Forecaster, "fit", counted_fit)
    requests = [make_request(throughput_mbps=20.0, duration_s=10_000.0) for _ in range(3)]
    outcomes, fitted = {}, {}
    for label, policy in (("plain", plain), ("reading", reading)):
        del fits[:]
        testbed = build_testbed(TestbedConfig())
        sim = Simulator()
        orchestrator = Orchestrator(
            sim=sim,
            allocator=testbed.allocator,
            plmn_pool=testbed.plmn_pool,
            overbooking=policy(),
            config=OrchestratorConfig(
                monitoring_epoch_s=1.0,
                deploy_time_s=0.5,
                durability_dir=str(tmp_path / label),
                checkpoint_every_records=0,
            ),
            streams=RandomStreams(seed=3),
        )
        orchestrator.start()
        profiles = (
            ConstantProfile(20.0, level=0.5, noise_std=0.2),
            DiurnalProfile(20.0, period_s=120.0, noise_std=0.1),
            OnOffProfile(20.0, period_s=37.0, noise_std=0.1),
        )
        for request, profile in zip(requests, profiles):
            assert orchestrator.submit(request, profile).admitted
        sim.run_until(FORECAST_HISTORY_EPOCHS + 120 + 0.75)
        runtimes = [orchestrator.runtime(slice_id_for(r.request_id)) for r in requests]
        outcomes[label] = (
            [e.to_dict() for e in orchestrator.events.since(0)],
            [rt.effective_fraction for rt in runtimes],
            [r.to_line() for r in orchestrator.store.records()],
        )
        fitted[label] = ([rt.forecaster for rt in runtimes], list(fits))
    assert outcomes["plain"] == outcomes["reading"]
    models, fits_made = fitted["plain"]
    assert models == [None] * 3 and fits_made == []
    models, fits_made = fitted["reading"]
    before_the_cap = [model for t, model in fits_made if t <= FORECAST_HISTORY_EPOCHS]
    assert all(model is not None for model in models)
    assert {before_the_cap.count(model) for model in models} <= {1, 2}
