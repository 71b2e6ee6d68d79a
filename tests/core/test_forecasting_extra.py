"""Tests for the extended forecaster family."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.forecasting import (
    ArForecaster,
    EnsembleForecaster,
    ForecastError,
    HoltWintersForecaster,
    MovingAverageForecaster,
    NaiveForecaster,
)

#: Every forecaster ``core.forecasting`` ships — the five D3 compares —
#: under the name the properties below report it by.
FORECASTERS = {
    "naive": NaiveForecaster,
    "moving-average": MovingAverageForecaster,
    "ar": ArForecaster,
    "holt-winters": HoltWintersForecaster,
    "ensemble": EnsembleForecaster,
}


def diurnal(n_days=5, m=24, noise=2.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n_days * m)
    return 40 + 25 * np.sin(2 * np.pi * t / m) + rng.normal(0, noise, t.size)


class TestRegistry:
    def test_every_name_constructs(self):
        for factory in FORECASTERS.values():
            forecaster = factory()
            forecaster.fit(diurnal(n_days=3))
            assert forecaster.forecast(1) >= 0.0

    def test_quantiles_available_on_all(self):
        for factory in FORECASTERS.values():
            forecaster = factory().fit(diurnal(n_days=3))
            assert forecaster.forecast_quantile(1, 0.9) >= forecaster.forecast(1) - 1e-9


def _seasoned(name, m):
    """The named model, with season length ``m`` where it has one."""
    takes_season = name == "holt-winters"
    return FORECASTERS[name](**({"season_length": m} if takes_season else {}))


def _answers(forecaster):
    return (
        forecaster.forecast(1),
        forecaster.forecast(7),
        forecaster.forecast_quantile(1, 0.95),
        forecaster.forecast_quantile(3, 0.99),
        forecaster.in_sample_mae(),
    )


class TestUpdateEqualsFit:
    """``update`` folds one sample in or declines: a model that folds
    every sample equals a refit on the whole series bit for bit, a model
    that declines is left exactly as its last fit."""

    @settings(max_examples=120, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=700
        ),
        split=st.integers(min_value=0),
        name=st.sampled_from(sorted(FORECASTERS)),
        m=st.sampled_from([2, 3, 24]),
    )
    @example(values=[5.0] * 49, split=0, name="holt-winters", m=24)
    def test_streaming_equals_refitting(self, values, split, name, m):
        k = 1 + split % len(values)
        streamed = _seasoned(name, m).fit(values[:k])
        folded = [streamed.update(value) for value in values[k:]]
        if name == "holt-winters":
            assert all(folded)
        assert len(set(folded)) <= 1  # a model folds always or never
        upto = len(values) if all(folded) else k
        assert _answers(streamed) == _answers(_seasoned(name, m).fit(values[:upto]))

    @pytest.mark.parametrize("m", [2, 3, 24])
    def test_holt_winters_across_the_second_season(self, m):
        """At the 2m-th sample the model turns seasonal, seeded from the
        first two seasons — whichever side of it the fit was on."""
        values = diurnal(n_days=4, m=m).tolist()[: 2 * m + 3]
        for k in {1, 2 * m - 2, 2 * m - 1, 2 * m, 2 * m + 1}:
            streamed = HoltWintersForecaster(season_length=m).fit(values[:k])
            for n in range(k + 1, len(values) + 1):
                assert streamed.update(values[n - 1]) is True
                refit = HoltWintersForecaster(season_length=m).fit(values[:n])
                assert _answers(streamed) == _answers(refit), (k, n)

    @pytest.mark.parametrize("fitted_on", [5, 47, 48, 60])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_is_refused_and_changes_nothing(self, fitted_on, bad):
        values = diurnal(n_days=3).tolist()
        streamed = HoltWintersForecaster(season_length=24).fit(values[:fitted_on])
        before = _answers(streamed)
        with pytest.raises(ForecastError):
            streamed.update(bad)
        assert _answers(streamed) == before
        assert streamed.update(values[fitted_on]) is True
        refit = HoltWintersForecaster(season_length=24).fit(values[: fitted_on + 1])
        assert _answers(streamed) == _answers(refit)

    def test_an_unfitted_model_cannot_fold(self):
        with pytest.raises(ForecastError):
            HoltWintersForecaster().update(1.0)
        assert NaiveForecaster().update(1.0) is False
