"""``RandomStreams.draws`` is ``RandomStreams.derive``, bit for bit.

``draws`` seeds a keyed PCG64 stream by integer arithmetic (a port of
numpy's ``SeedSequence`` pool mix, ``generate_state``, PCG64 seeding and
its XSL-RR step) instead of building a ``SeedSequence`` and a ``PCG64``.
numpy itself is the oracle: every ``uniform`` either draw makes must be
``==`` to the other's, and a bound pair numpy refuses must be refused
with the same error — so no traffic shape, digest or journal byte that
reads a keyed profile can move.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import randomness
from repro.sim.randomness import RandomStreams
from repro.traffic.verticals import VERTICALS

#: One, two and five entropy words; the 31-bit fork range; 2**63's edges.
SEEDS = (
    0, 1, 7, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**48 + 7,
    2**63 - 1, 2**63, 2**63 + 12_345, 2**64 - 1, 2**128 + 3,
)
ALPHABETS = ("abcdefghijklmnopqrstuvwxyz-0123456789", "éüßøλπдж漢字スライス🙂")
#: (low, high) of several magnitudes, equal bounds, and refused pairs:
#: ``low > high`` (also ``0.0 > -0.0``), a non-finite or overflowing span.
BOUNDS = (
    (0.0, 1.0), (300.0, 900.0), (10.0, 40.0), (0.15, 0.35), (1_800.0, 5_400.0),
    (-1e-9, 1e-9), (-5.0, -2.0), (1e12, 1e15), (-1e300, 1e300), (3, 8), (4.5, 4.5),
    (1.0, 0.0), (900.0, 300.0), (0.0, -0.0), (0.0, float("inf")), (float("nan"), 1.0),
    (-1e308, 1e308),
)
CASES = 100_000


def outcome(uniform, low, high):
    """The draw, or the type of the error it raised."""
    try:
        return uniform(low, high)
    except (OverflowError, ValueError) as error:
        return type(error)


def random_name(rng: random.Random) -> str:
    alphabet = rng.choice(ALPHABETS + ("".join(ALPHABETS),))
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))


def random_seed(rng: random.Random) -> int:
    if rng.random() < 0.5:
        return rng.choice(SEEDS)
    return rng.randrange(2 ** rng.choice((8, 31, 32, 33, 63, 64, 96, 130)))


def test_draws_equal_derive_on_random_seeds_names_and_bounds():
    rng = random.Random(20_260_317)
    registries = {}
    draws = refused = 0
    for _ in range(CASES):
        seed = random_seed(rng)
        streams = registries.setdefault(seed, RandomStreams(seed=seed))
        name = random_name(rng)
        oracle, port = streams.derive(name), streams.draws(name)
        for _ in range(rng.randrange(1, 5)):
            if rng.random() < 0.5:
                low, high = rng.choice(BOUNDS)
            else:
                low = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-12, 13)
                high = low + rng.random() * 10.0 ** rng.randrange(-12, 13)
            expected = outcome(oracle.uniform, low, high)
            assert outcome(port.uniform, low, high) == expected, (seed, name, low, high)
            draws += 1
            refused += isinstance(expected, type)
    assert draws > 2 * CASES and refused > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_equal_derive_for_profile_keys(seed):
    """The keys ``default_profile`` draws from, over every seed shape."""
    streams = RandomStreams(seed=seed)
    for ordinal in range(1, 200):
        name = f"api-profile-req-{ordinal:06d}"
        oracle, port = streams.derive(name), streams.draws(name)
        for low, high in ((0.0, 1.0), (300.0, 900.0), (10.0, 40.0), (0.3, 0.5)):
            assert port.uniform(low, high) == oracle.uniform(low, high)


@pytest.mark.parametrize("service_type", list(VERTICALS))
def test_every_vertical_builds_the_same_profile_from_either(service_type):
    spec = VERTICALS[service_type]
    rng = random.Random(str(service_type))
    for _ in range(300):
        streams = RandomStreams(seed=random_seed(rng))
        name = f"api-profile-{random_name(rng)}"
        peak = rng.choice((1.0, 4.0, 25.0, 250.0))
        oracle = spec.sample_profile(peak, streams.derive(name))
        port = spec.sample_profile(peak, streams.draws(name))
        assert type(port) is type(oracle)
        assert vars(port) == vars(oracle)


def test_draws_keep_nothing_and_mix_the_seed_once(monkeypatch):
    calls = []
    real = randomness._seed_pool
    monkeypatch.setattr(randomness, "_seed_pool", lambda seed: calls.append(seed) or real(seed))
    streams = RandomStreams(seed=11)
    for ordinal in range(50):
        streams.draws(f"api-profile-req-{ordinal:06d}").uniform(0.0, 1.0)
    assert calls == [11]
    assert streams._streams == {}


def test_a_negative_seed_is_refused_like_derive():
    streams = RandomStreams(seed=-1)
    with pytest.raises(ValueError):
        streams.derive("x")
    with pytest.raises(ValueError):
        streams.draws("x")
