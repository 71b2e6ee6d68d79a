"""Draw identity: the engine's seeded draws, against the textbook calls.

The mobility models and the request mix draw each value from the
cheapest numpy call that reads the same stream and returns the same
bits as the textbook one:

* ``seq[rng.integers(len(seq))]`` for ``rng.choice(seq)``, and one
  ``rng.integers(0, n, size=k)`` for ``k`` of them in a row;
* ``lo + (hi - lo) * rng.random()`` for ``rng.uniform(lo, hi)``;
* ``bisect_right(cdf, rng.random())`` over the cdf ``choice(p=...)``
  builds (``p.cumsum()`` over its last element) for
  ``rng.choice(n, p=p)``.

The oracles below are the loops written with the textbook calls.  For
random shapes, windows, fractions, jitters, weights and seeds, each
model must give the same timeline event for event (times compared as
``float.hex``) and leave its generator in the same state.  The last
test reads the source: no ``src/repro`` line calls ``.choice(``.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.slices import ServiceType
from repro.scenarios.mobility import CommuterTides, HandoverEvent, VehicularCorridor
from repro.traffic.generator import RequestMix
from tests.source_reading import src_lines_matching

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

PROPERTY = settings(
    max_examples=100 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_commuter(model: CommuterTides, n_users, n_cells, horizon_s, rng):
    edge_cells = list(range(n_cells // 2))
    core_cells = list(range(n_cells // 2, n_cells))
    initial = [int(rng.choice(edge_cells)) for _ in range(n_users)]
    commutes = rng.random(n_users) < model.commuter_fraction
    events: List[HandoverEvent] = []
    for user in range(n_users):
        if not commutes[user]:
            continue
        work_cell = int(rng.choice(core_cells))
        out_t = float(rng.uniform(*model.morning)) * horizon_s
        events.append(HandoverEvent(out_t, user, initial[user], work_cell))
        back_t = float(rng.uniform(*model.evening)) * horizon_s
        if back_t < horizon_s:
            home_cell = int(rng.choice(edge_cells))
            events.append(HandoverEvent(back_t, user, work_cell, home_cell))
    events.sort(key=lambda e: (e.time_s, e.user))
    return initial, events


def reference_corridor(model: VehicularCorridor, n_users, n_cells, horizon_s, rng):
    initial = [0] * n_users
    dwell_base = model.dwell_fraction * horizon_s / max(1, n_cells)
    events: List[HandoverEvent] = []
    for vehicle in range(n_users):
        t = float(rng.uniform(*model.depart)) * horizon_s
        for cell in range(n_cells - 1):
            jitter = 1.0 + float(
                rng.uniform(-model.dwell_jitter, model.dwell_jitter)
            )
            t += dwell_base * jitter
            if t >= horizon_s:
                break  # vehicle leaves the corridor past the horizon
            events.append(HandoverEvent(t, vehicle, cell, cell + 1))
    events.sort(key=lambda e: (e.time_s, e.user))
    return initial, events


def reference_sample_type(weights, rng):
    types = list(weights)
    probs = np.array([weights[t] for t in types]) / sum(weights.values())
    return types[int(rng.choice(len(types), p=probs))]


def exact(events) -> list:
    """Events as comparable rows, each time as its exact bits."""
    return [(float.hex(e.time_s), e.user, e.from_cell, e.to_cell) for e in events]


def assert_same_timeline(model, reference, shape, seed):
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    timeline = model.timeline(*shape, rng)
    initial, events = reference(model, *shape, oracle)
    assert list(timeline.initial_cells) == initial
    assert all(type(cell) is int for cell in timeline.initial_cells)
    assert exact(timeline.handovers) == exact(events)
    assert all(
        type(e.from_cell) is int and type(e.to_cell) is int and type(e.time_s) is float
        for e in timeline.handovers
    )
    assert rng.bit_generator.state == oracle.bit_generator.state


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
horizons = st.floats(min_value=60.0, max_value=7 * 86_400.0, allow_nan=False)

commuter_windows = (
    st.lists(unit, min_size=4, max_size=4)
    .map(sorted)
    .filter(lambda w: w[0] < w[1] and w[2] < w[3])
)


@PROPERTY
@given(
    users=st.integers(min_value=0, max_value=200),
    cells=st.integers(min_value=2, max_value=16),
    horizon_s=horizons,
    windows=commuter_windows,
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    seed=seeds,
)
def test_commuter_tides_draws_the_textbook_timeline(
    users, cells, horizon_s, windows, fraction, seed
):
    model = CommuterTides(
        morning=(windows[0], windows[1]),
        evening=(windows[2], windows[3]),
        commuter_fraction=fraction,
    )
    assert_same_timeline(model, reference_commuter, (users, cells, horizon_s), seed)


@PROPERTY
@given(
    users=st.integers(min_value=0, max_value=120),
    cells=st.integers(min_value=1, max_value=16),
    horizon_s=horizons,
    depart=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=2, max_size=2
    ).map(sorted).filter(lambda w: w[0] < w[1]),
    dwell_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    dwell_jitter=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    seed=seeds,
)
def test_vehicular_corridor_draws_the_textbook_timeline(
    users, cells, horizon_s, depart, dwell_fraction, dwell_jitter, seed
):
    model = VehicularCorridor(
        depart=tuple(depart), dwell_fraction=dwell_fraction, dwell_jitter=dwell_jitter
    )
    assert_same_timeline(model, reference_corridor, (users, cells, horizon_s), seed)


mix_weights = st.dictionaries(
    st.sampled_from(list(ServiceType)),
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)),
    min_size=1,
).filter(lambda weights: sum(weights.values()) > 0)


@PROPERTY
@given(weights=mix_weights, draws=st.integers(min_value=1, max_value=300), seed=seeds)
def test_request_mix_draws_the_textbook_vertical(weights, draws, seed):
    mix = RequestMix(weights=weights)
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [mix.sample_type(rng) for _ in range(draws)]
    assert drawn == [reference_sample_type(weights, oracle) for _ in range(draws)]
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_no_source_line_calls_generator_choice():
    """``Generator.choice`` rebuilds an array (and, with ``p``, a cdf) per
    call; the engine draws the same value with ``integers``/``random``."""
    assert src_lines_matching(r"\.choice\(") == []
