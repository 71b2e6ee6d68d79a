"""``RandomStreams.draws``: one counter-based keyed draw.

The key SplitMix64-mixes every 64-bit word of the seed, lowest first,
into the name's CRC32; the i-th ``uniform(low, high)`` is
``low + (high - low) · (mix(key + i·γ) >> 11) · 2⁻⁵³`` — integer
arithmetic plus one exact scaling, so the same bits on every host.

Two oracles hold it there.  The known answers pin the format: a change
to the key, the counter or the scaling moves them, and so would a host
whose float arithmetic differed.  ``derive`` below writes that format
out plainly (the seed's bytes cut into words, ``ldexp`` for the
scaling), and ``draws`` must equal it draw for draw, refusals included.
"""

from __future__ import annotations

import math
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.sim.randomness import RandomStreams
from repro.traffic.verticals import VERTICALS

#: (seed, name) → the first three ``uniform()`` and then ``uniform(300, 900)``.
KNOWN_ANSWERS = {
    (0, "api-profile-req-000001"): (
        "0x1.ba1c4d817789cp-1", "0x1.1316d00958b18p-3", "0x1.dc7bf038ba046p-2",
        "0x1.3f345ac2cf157p+8",
    ),
    (1, "ues-slice-000007"): (
        "0x1.eb7a97326186cp-1", "0x1.c14f6c81222acp-2", "0x1.29ce1d5c54920p-5",
        "0x1.99bb7daeb8c16p+9",
    ),
    (2**64, "éü漢字🙂"): (
        "0x1.03e2466f0c1cep-1", "0x1.d6b278c0afa7bp-1", "0x1.aff294d247bdap-2",
        "0x1.aee78cb484a64p+9",
    ),
    (2**128 + 3, "api-profile-req-000001"): (
        "0x1.6e23c7e5d2f8ep-1", "0x1.b447d47922426p-1", "0x1.1d4b44d38bc1ap-1",
        "0x1.3b91f5195ebcep+9",
    ),
}
#: One, two and three seed words; the 31-bit fork range; 2**63's edges.
SEEDS = (
    0, 1, 7, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**48 + 7,
    2**63 - 1, 2**63, 2**63 + 12_345, 2**64 - 1, 2**128 + 3,
)
ALPHABETS = ("abcdefghijklmnopqrstuvwxyz-0123456789", "éüßøλπдж漢字スライス🙂")
#: Refused pairs: ``low > high`` (also ``0.0 > -0.0``), a non-finite or
#: overflowing span.
REFUSED = (
    ((1.0, 0.0), ValueError), ((900.0, 300.0), ValueError), ((0.0, -0.0), ValueError),
    ((0.0, float("inf")), OverflowError), ((float("nan"), 1.0), OverflowError),
    ((-1e308, 1e308), OverflowError),
)
#: (low, high) of several magnitudes, equal bounds, and the refused pairs.
BOUNDS = (
    (0.0, 1.0), (300.0, 900.0), (10.0, 40.0), (0.15, 0.35), (1_800.0, 5_400.0),
    (-1e-9, 1e-9), (-5.0, -2.0), (1e12, 1e15), (-1e300, 1e300), (3, 8), (4.5, 4.5),
    *(bounds for bounds, _ in REFUSED),
)
CASES = 100_000
GOLDEN = 0x9E3779B97F4A7C15


# ----------------------------------------------------------------------
# The format, written out plainly
# ----------------------------------------------------------------------
def splitmix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


class Reference:
    def __init__(self, key: int) -> None:
        self.key, self.i = key, 0

    def uniform(self, low=0.0, high=1.0) -> float:
        low, high = float(low), float(high)
        span = high - low
        if math.isnan(span) or math.isinf(span):
            raise OverflowError(span)
        if span < 0.0 or math.copysign(1.0, span) == -1.0:
            raise ValueError(span)
        word = splitmix((self.key + self.i * GOLDEN) % 2**64)
        self.i += 1
        return low + span * math.ldexp(word >> 11, -53)


def derive(seed: int, name: str) -> Reference:
    if seed < 0:
        raise ValueError(seed)
    raw = seed.to_bytes(max(8, -(-seed.bit_length() // 64) * 8), "little")
    key = zlib.crc32(name.encode("utf-8"))
    for start in range(0, len(raw), 8):
        key = splitmix(((key + GOLDEN) % 2**64) ^ int.from_bytes(raw[start:start + 8], "little"))
    return Reference(key)


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


def sequence(streams: RandomStreams, name: str, n: int) -> list:
    draws = streams.draws(name)
    return [draws.uniform() for _ in range(n)]


# ----------------------------------------------------------------------
# Known answers and the plain form
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "seed, name", list(KNOWN_ANSWERS), ids=["seed-0", "seed-1", "seed-2**64-utf8", "seed-2**128+3"]
)
def test_known_answers(seed, name):
    draws = RandomStreams(seed=seed).draws(name)
    got = [draws.uniform() for _ in range(3)] + [draws.uniform(300.0, 900.0)]
    assert [value.hex() for value in got] == list(KNOWN_ANSWERS[seed, name])


def test_draws_equal_derive_on_random_seeds_names_and_bounds():
    rng = random.Random(20_260_317)
    registries = {}
    draws = refused = 0
    for _ in range(CASES):
        seed = random_seed(rng)
        streams = registries.setdefault(seed, RandomStreams(seed=seed))
        name = random_name(rng)
        oracle, port = derive(seed, name), streams.draws(name)
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
        oracle, port = derive(seed, name), streams.draws(name)
        for low, high in ((0.0, 1.0), (300.0, 900.0), (10.0, 40.0), (0.3, 0.5)):
            assert port.uniform(low, high) == oracle.uniform(low, high)


@pytest.mark.parametrize("service_type", list(VERTICALS))
def test_every_vertical_builds_the_same_profile_from_either(service_type):
    spec = VERTICALS[service_type]
    rng = random.Random(str(service_type))
    for _ in range(300):
        seed, name = random_seed(rng), f"api-profile-{random_name(rng)}"
        peak = rng.choice((1.0, 4.0, 25.0, 250.0))
        oracle = spec.sample_profile(peak, derive(seed, name))
        port = spec.sample_profile(peak, RandomStreams(seed=seed).draws(name))
        assert type(port) is type(oracle)
        assert vars(port) == vars(oracle)


def test_a_negative_seed_is_refused_like_derive():
    with pytest.raises(ValueError):
        derive(-1, "x")
    with pytest.raises(ValueError):
        RandomStreams(seed=-1).draws("x")


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**130),
    keys=st.lists(st.text(max_size=12), min_size=1, max_size=6, unique=True),
    schedule=st.lists(st.integers(0, 5), max_size=60),
    created_first=st.permutations(range(6)),
)
def test_the_ith_draw_depends_on_seed_name_and_i_alone(seed, keys, schedule, created_first):
    """Draws interleaved across names, made from generators created in
    any order, are each name's sequence drawn alone in a fresh registry;
    and the registry keeps nothing."""
    streams = RandomStreams(seed=seed)
    generators = {keys[i]: streams.draws(keys[i]) for i in created_first if i < len(keys)}
    drawn = {name: [] for name in keys}
    for step in schedule:
        name = keys[step % len(keys)]
        drawn[name].append(generators[name].uniform())
    for name, values in drawn.items():
        assert values == sequence(RandomStreams(seed=seed), name, len(values))
    assert streams._streams == {}


@pytest.mark.parametrize("low", [0, 1, 2**63, 2**64 - 1])
def test_seeds_that_differ_above_bit_64_draw_differently(low):
    seeds = [low, low + 2**64, low + 2**100, low + 2**128 + 2**64]
    firsts = {tuple(sequence(RandomStreams(seed=seed), "api-profile-req-000001", 4))
              for seed in seeds}
    assert len(firsts) == len(seeds)


@pytest.mark.parametrize("bounds, error", REFUSED)
def test_refused_bounds_raise_and_advance_nothing(bounds, error):
    streams = RandomStreams(seed=7)
    draws = streams.draws("x")
    with pytest.raises(error):
        draws.uniform(*bounds)
    assert [draws.uniform(), draws.uniform()] == sequence(streams, "x", 2)


def test_draws_are_uniform_along_a_name_and_across_names():
    """Kolmogorov–Smirnov against U(0, 1): 20 000 draws of one name, and
    the first draw of 20 000 names (one profile per request id)."""
    streams = RandomStreams(seed=11)
    along = sequence(streams, "demand", 20_000)
    across = [streams.draws(f"api-profile-req-{i:06d}").uniform() for i in range(20_000)]
    for sample in (along, across):
        assert stats.kstest(sample, stats.uniform.cdf).pvalue > 0.01
