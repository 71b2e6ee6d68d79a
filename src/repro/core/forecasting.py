"""Traffic forecasting engine.

The demo's "machine-learning engine" (following Sciancalepore et al.,
INFOCOM'17 — ref [4]) forecasts each slice's demand so the orchestrator
can commit less than the nominal SLA reservation.  We implement the
classical forecaster family that paper builds on:

- :class:`NaiveForecaster` — last value carried forward (baseline),
- :class:`MovingAverageForecaster` — window mean (baseline),
- :class:`ArForecaster` — AR(p) fit by least squares,
- :class:`HoltWintersForecaster` — additive triple exponential smoothing
  with a configurable season length (the right model for diurnal mobile
  traffic),
- :class:`EnsembleForecaster` — picks the member with the lowest
  in-sample one-step error.

All forecasters expose point forecasts *and* upper-quantile forecasts:
``forecast_quantile(h, q)`` returns the level the demand will stay under
with probability ``q``, derived from the Gaussian residual model.  The
overbooking engine reserves that quantile instead of the SLA peak — the
difference is the multiplexing gain.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from array import array
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np


class ForecastError(RuntimeError):
    """Raised when a forecaster is used before fitting or on bad input."""


# Cephes ``ndtri`` (behind ``scipy.special.ndtri``): published coefficients, highest power
# first, each Q with ``p1evl``'s implicit leading 1.  P0/Q0 the centre, exp(−2) < y < 1 − exp(−2);
# P1/Q1 the tails with x = √(−2 ln y) < 8, P2/Q2 those with x ≥ 8.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(−2): the centre / tail split
_S2PI = 2.50662827463100050242  # √(2π)


def _polevl(x: float, coef: tuple, monic: bool = False) -> float:
    """Horner's rule in Cephes' order; ``monic`` is ``p1evl``'s leading 1."""
    acc = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _ndtri(y: float) -> float:
    """Standard normal quantile Φ⁻¹(y) for 0 < y < 1, bit for bit
    ``scipy.stats.norm.ppf(y)`` (``tests/core/test_normal_quantile.py``)."""
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, True))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q, True)
    return x if upper else -x


@lru_cache(maxsize=64)
def _z_value(q: float) -> float:
    """Gaussian upper-quantile z for ``q`` by :func:`_ndtri`, not scipy, whose import
    added ~62 MB to every control plane's resident size.  A call costs 1–2 µs (``norm.ppf``
    ~95 µs), a cache hit 0.12 µs, and the engine asks for the same handful of quantiles
    on every window, so the cache stays."""
    return _ndtri(q)


class Forecaster(ABC):
    """Base class: fit on a history, forecast ``h`` steps ahead."""

    def __init__(self) -> None:
        self._fitted = False
        #: ``y − one-step in-sample prediction``, one double per sample
        #: fitted or folded in — a flat buffer, not boxed floats: every
        #: live slice keeps one of these for its whole life.
        self._residuals = array("d")
        self._sigma: Optional[float] = None  # σ of the above, on demand

    # ------------------------------------------------------------------
    # Template methods
    # ------------------------------------------------------------------
    @abstractmethod
    def _fit(self, y: np.ndarray) -> Optional[np.ndarray]:
        """Model-specific fit.  A model whose fit already walks the
        series may return its :meth:`_fitted_values` and save the
        second pass."""

    @abstractmethod
    def _point_forecast(self, h: int) -> float:
        """Model-specific point forecast ``h ≥ 1`` steps ahead."""

    @abstractmethod
    def _fitted_values(self, y: np.ndarray) -> np.ndarray:
        """One-step-ahead in-sample predictions (same length as ``y``;
        entries the model cannot predict should repeat ``y``)."""

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def fit(self, history: Sequence[float]) -> "Forecaster":
        """Fit on an evenly-spaced demand history.

        Raises:
            ForecastError: If the history is empty or contains NaN.
        """
        y = np.asarray(list(history), dtype=float)
        if y.size == 0:
            raise ForecastError("cannot fit on an empty history")
        if np.any(~np.isfinite(y)):
            raise ForecastError("history contains non-finite values")
        fitted = self._fit(y)
        if fitted is None:
            fitted = self._fitted_values(y)
        self._residuals = array("d", (y - fitted).tobytes())
        self._sigma = None
        self._fitted = True
        return self

    def update(self, value: float) -> bool:
        """Fold one more sample into a fitted model, if it can.

        ``True``: folded in — after ``fit(v[:k])`` and one ``update`` per
        later value, every forecast, quantile and :meth:`in_sample_mae`
        equals ``fit(v)``'s bit for bit.  ``False`` (this default): the
        model cannot, nothing changed, and the caller refits on its own
        history.

        Raises:
            ForecastError: If the model folds samples in and ``value``
                is not finite or the model is not fitted.
        """
        return False

    def forecast(self, h: int = 1) -> float:
        """Point forecast ``h`` steps ahead (demand is clipped at 0).

        Raises:
            ForecastError: If not fitted or ``h < 1``.
        """
        self._require_fitted()
        if h < 1:
            raise ForecastError(f"horizon must be ≥ 1, got {h}")
        return max(0.0, float(self._point_forecast(h)))

    def forecast_quantile(self, h: int = 1, q: float = 0.95) -> float:
        """Upper ``q``-quantile forecast: point + z_q × residual σ.

        The residual σ is scaled by √h to widen the band with horizon
        (random-walk error growth), a standard conservative choice.

        Raises:
            ForecastError: If not fitted, ``h < 1`` or ``q`` outside (0, 1).
        """
        if not 0.0 < q < 1.0:
            raise ForecastError(f"quantile must be in (0, 1), got {q}")
        point = self.forecast(h)
        if self._sigma is None:
            # Guard: a single point gives no residual information.
            residuals = np.frombuffer(self._residuals)
            self._sigma = float(np.std(residuals, ddof=0)) if residuals.size >= 2 else 0.0
        return max(0.0, point + _z_value(q) * self._sigma * math.sqrt(h))

    def in_sample_mae(self) -> float:
        """In-sample one-step mean absolute error (model-selection score)."""
        self._require_fitted()
        return float(np.mean(np.abs(np.frombuffer(self._residuals))))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise ForecastError(f"{type(self).__name__} is not fitted")


class NaiveForecaster(Forecaster):
    """Forecast = last observed value (the persistence baseline)."""

    def _fit(self, y: np.ndarray) -> None:
        self._last = float(y[-1])

    def _point_forecast(self, h: int) -> float:
        return self._last

    def _fitted_values(self, y: np.ndarray) -> np.ndarray:
        fitted = np.empty_like(y)
        fitted[0] = y[0]
        fitted[1:] = y[:-1]
        return fitted


class MovingAverageForecaster(Forecaster):
    """Forecast = mean of the last ``window`` observations."""

    def __init__(self, window: int = 12) -> None:
        super().__init__()
        if window < 1:
            raise ForecastError(f"window must be ≥ 1, got {window}")
        self.window = int(window)

    def _fit(self, y: np.ndarray) -> None:
        self._level = float(y[-self.window :].mean())

    def _point_forecast(self, h: int) -> float:
        return self._level

    def _fitted_values(self, y: np.ndarray) -> np.ndarray:
        # Trailing-window means via cumulative sums: fitted[i] is the
        # mean of y[max(0, i-window):i], computed without a Python loop.
        fitted = np.empty_like(y, dtype=float)
        fitted[0] = y[0]
        if y.size > 1:
            csum = np.cumsum(y, dtype=float)
            idx = np.arange(1, y.size)
            lo = np.maximum(0, idx - self.window)
            sums = csum[idx - 1] - np.where(lo > 0, csum[lo - 1], 0.0)
            fitted[1:] = sums / (idx - lo)
        return fitted


class ArForecaster(Forecaster):
    """AR(p) model fit by ordinary least squares.

    ``y_t = c + Σ_{i=1..p} φ_i y_{t-i} + ε``; multi-step forecasts are
    produced by iterated one-step prediction.  Falls back to the naive
    model when the history is shorter than ``2p + 2``.
    """

    def __init__(self, order: int = 4) -> None:
        super().__init__()
        if order < 1:
            raise ForecastError(f"order must be ≥ 1, got {order}")
        self.order = int(order)
        self._coef: Optional[np.ndarray] = None
        self._intercept = 0.0

    def _fit(self, y: np.ndarray) -> None:
        p = self.order
        if y.size < 2 * p + 2:
            self._coef = None
            self._last = float(y[-1])
            return
        rows = y.size - p
        design = np.ones((rows, p + 1))
        for i in range(p):
            design[:, i + 1] = y[p - 1 - i : y.size - 1 - i]
        target = y[p:]
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        self._intercept = float(solution[0])
        self._coef = solution[1:]
        self._tail = list(y[-p:][::-1])  # most recent first

    def _point_forecast(self, h: int) -> float:
        if self._coef is None:
            return self._last
        lags = list(self._tail)
        value = 0.0
        for _ in range(h):
            value = self._intercept + float(np.dot(self._coef, lags))
            lags = [value] + lags[:-1]
        return value

    def _fitted_values(self, y: np.ndarray) -> np.ndarray:
        fitted = y.copy().astype(float)
        if self._coef is None:
            fitted[1:] = y[:-1]
            return fitted
        p = self.order
        for i in range(p, y.size):
            lags = y[i - p : i][::-1]
            fitted[i] = self._intercept + float(np.dot(self._coef, lags))
        return fitted


class HoltWintersForecaster(Forecaster):
    """Additive Holt-Winters (triple exponential smoothing).

    Level ``l``, trend ``b`` and additive seasonal components ``s`` with
    season length ``m``; the canonical model for diurnal mobile traffic.
    Falls back to simple (double) exponential smoothing when the history
    is shorter than two full seasons.

    Args:
        season_length: Samples per season (e.g. 288 for a day at 5 min).
        alpha: Level smoothing in (0, 1).
        beta: Trend smoothing in [0, 1).
        gamma: Seasonal smoothing in [0, 1).
    """

    def __init__(
        self,
        season_length: int = 24,
        alpha: float = 0.35,
        beta: float = 0.05,
        gamma: float = 0.25,
    ) -> None:
        super().__init__()
        if season_length < 2:
            raise ForecastError(f"season length must be ≥ 2, got {season_length}")
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not 0.0 <= value < 1.0:
                raise ForecastError(f"{name} must be in [0, 1), got {value}")
        if alpha <= 0.0:
            raise ForecastError("alpha must be positive")
        self.m = int(season_length)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)

    def _recur(self, level, trend, season, seasonal, start, values) -> tuple:
        """The recursions over ``values`` (samples ``start``, ``start + 1``,
        …) from the given state, in Python floats; ``season`` is updated
        in place.  Returns (level, trend, one-step predictions).  The one
        loop both :meth:`fit` and :meth:`update` run, so a sample folded
        in goes through the very operations a refit would apply to it."""
        m, alpha, beta, gamma = self.m, self.alpha, self.beta, self.gamma
        preds = []
        for i, value in enumerate(values, start):
            s_idx = i % m
            pred = level + trend + (season[s_idx] if seasonal else 0.0)
            preds.append(pred)
            prev_level = level
            if seasonal:
                level = alpha * (value - season[s_idx]) + (1 - alpha) * (level + trend)
                season[s_idx] = gamma * (value - level) + (1 - gamma) * season[s_idx]
            else:
                level = alpha * value + (1 - alpha) * (level + trend)
            trend = beta * (level - prev_level) + (1 - beta) * trend
        return level, trend, preds

    def _smooth(self, y: np.ndarray) -> tuple:
        """One pass from scratch; returns (level, trend, season, seasonal, fitted)."""
        m = self.m
        seasonal = y.size >= 2 * m
        if seasonal:
            # Initial components from the first two seasons.
            level = float(y[:m].mean())
            trend = float((y[m : 2 * m].mean() - y[:m].mean()) / m)
            season = [float(y[i] - level) for i in range(m)]
            start = m
        else:
            level = float(y[0])
            trend = 0.0
            season = [0.0] * m
            start = 1
        values = y.tolist()
        level, trend, preds = self._recur(
            level, trend, season, seasonal, start, values[start:]
        )
        return level, trend, season, seasonal, np.array(values[:start] + preds)

    def _fit(self, y: np.ndarray) -> np.ndarray:
        self._level, self._trend, self._season, self._seasonal, fitted = self._smooth(y)
        self._n = y.size
        # Short of two seasons the samples themselves are state: the
        # seasonal model is seeded from all of them when the 2m-th arrives.
        self._head = None if self._seasonal else array("d", y.tobytes())
        return fitted

    def update(self, value: float) -> bool:
        self._require_fitted()
        value = float(value)
        if not math.isfinite(value):
            raise ForecastError(f"cannot fold in a non-finite value ({value})")
        if not self._seasonal:
            self._head.append(value)
            if len(self._head) == 2 * self.m:
                self.fit(self._head)
                return True
        self._level, self._trend, (pred,) = self._recur(
            self._level, self._trend, self._season, self._seasonal, self._n, (value,)
        )
        self._n += 1
        self._residuals.append(value - pred)
        self._sigma = None
        return True

    def _point_forecast(self, h: int) -> float:
        value = self._level + h * self._trend
        if self._seasonal:
            value += self._season[(self._n + h - 1) % self.m]
        return value

    def _fitted_values(self, y: np.ndarray) -> np.ndarray:
        return self._smooth(y)[-1]


class EnsembleForecaster(Forecaster):
    """Selects, at fit time, the member with the lowest in-sample MAE."""

    def __init__(self, members: Optional[List[Forecaster]] = None) -> None:
        super().__init__()
        if members is None:
            members = [
                NaiveForecaster(),
                MovingAverageForecaster(window=12),
                ArForecaster(order=4),
                HoltWintersForecaster(season_length=24),
            ]
        if not members:
            raise ForecastError("ensemble needs at least one member")
        self.members = members
        self.selected: Optional[Forecaster] = None

    def _fit(self, y: np.ndarray) -> None:
        best_mae = float("inf")
        best: Optional[Forecaster] = None
        for member in self.members:
            member.fit(y)
            mae = member.in_sample_mae()
            if mae < best_mae:
                best_mae, best = mae, member
        self.selected = best

    def _point_forecast(self, h: int) -> float:
        assert self.selected is not None
        return self.selected._point_forecast(h)

    def _fitted_values(self, y: np.ndarray) -> np.ndarray:
        assert self.selected is not None
        return self.selected._fitted_values(y)


def evaluate_forecaster(
    forecaster: Forecaster,
    series: Sequence[float],
    train_fraction: float = 0.7,
    horizon: int = 1,
) -> dict:
    """Rolling-origin out-of-sample evaluation.

    Fits on the first ``train_fraction`` of ``series`` and then walks
    forward one step at a time, refitting and recording the ``horizon``
    step-ahead error at each origin.

    Returns:
        Dict with ``mae``, ``rmse``, ``mape`` (on nonzero truths) and
        ``n_evaluations``.

    Raises:
        ForecastError: If the split leaves no evaluation points.
    """
    y = np.asarray(list(series), dtype=float)
    split = int(y.size * train_fraction)
    if split < 2 or split + horizon > y.size:
        raise ForecastError("series too short for the requested split/horizon")
    errors: List[float] = []
    truths: List[float] = []
    for origin in range(split, y.size - horizon + 1):
        forecaster.fit(y[:origin])
        pred = forecaster.forecast(horizon)
        truth = y[origin + horizon - 1]
        errors.append(pred - truth)
        truths.append(truth)
    err = np.array(errors)
    truth_arr = np.array(truths)
    nonzero = np.abs(truth_arr) > 1e-9
    mape = (
        float(np.mean(np.abs(err[nonzero] / truth_arr[nonzero]))) if nonzero.any() else 0.0
    )
    return {
        "mae": float(np.mean(np.abs(err))),
        "rmse": float(np.sqrt(np.mean(err**2))),
        "mape": mape,
        "n_evaluations": int(err.size),
    }


__all__ = [
    "ArForecaster",
    "EnsembleForecaster",
    "ForecastError",
    "Forecaster",
    "HoltWintersForecaster",
    "MovingAverageForecaster",
    "NaiveForecaster",
    "evaluate_forecaster",
]
