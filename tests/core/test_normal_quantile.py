"""The forecast quantile's z: a Cephes ``ndtri`` port, bit for bit scipy's.

scipy is the test-only oracle: the library computes ``z_q`` without it,
and every forecast quantile, overbooking fraction, journal byte and
scenario digest depends on the port returning *exactly* what
``scipy.stats.norm.ppf`` returned before it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.forecasting import _ndtri, _z_value
from repro.core.overbooking import AdaptiveOverbooking


def oracle_grid() -> np.ndarray:
    """≥ 400k seeded points: uniform on (0, 1), log-uniform tails on both
    sides (down to 1e-300 and 1 − 1e-16), and the quantiles the engine
    asks for."""
    rng = np.random.default_rng(20181)
    used = np.concatenate(
        [
            np.round(np.arange(0.80, 0.9901, 0.01), 2),
            [0.5, 0.95, 0.975, 0.999, AdaptiveOverbooking.Q_MIN, AdaptiveOverbooking.Q_MAX],
        ]
    )
    grid = np.concatenate(
        [
            rng.uniform(0.0, 1.0, 200_000),
            10.0 ** rng.uniform(-300.0, 0.0, 100_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 100_000),
            np.linspace(0.5, 0.999, 10_000),
            used,
        ]
    )
    return grid[(grid > 0.0) & (grid < 1.0)]


def test_port_equals_scipy_norm_ppf_bit_for_bit():
    stats = pytest.importorskip("scipy.stats")
    grid = oracle_grid()
    assert grid.size >= 400_000
    expected = stats.norm.ppf(grid)
    got = np.array([_ndtri(y) for y in grid.tolist()])
    mismatched = np.flatnonzero(got != expected)
    assert mismatched.size == 0, (
        f"{mismatched.size} of {grid.size} differ; first at y={grid[mismatched[0]]!r}: "
        f"{got[mismatched[0]]!r} != {expected[mismatched[0]]!r}"
    )


def test_z_value_is_the_port_for_every_quantile_the_engine_uses():
    stats = pytest.importorskip("scipy.stats")
    for q in (0.8, 0.85, 0.9, 0.95, 0.99, AdaptiveOverbooking.Q_MIN, AdaptiveOverbooking.Q_MAX):
        assert _z_value(q) == _ndtri(q) == float(stats.norm.ppf(q))


def test_branches_meet_symmetrically():
    # Φ⁻¹(1 − y) = −Φ⁻¹(y) holds exactly where 1 − y is exact; both
    # sides of the exp(−2) split and the x = 8 split are covered.
    for y in (0.25, 0.125, 0.1, 1e-3, 2.0**-40, 2.0**-50):
        assert _ndtri(1.0 - y) == -_ndtri(y)
    assert _ndtri(0.5) == 0.0
