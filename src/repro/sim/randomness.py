"""Seeded random-stream registry.

Every stochastic component (traffic sampling, CQI processes, request
arrivals, ...) draws from its own named :class:`numpy.random.Generator`.
Streams are derived from a single experiment seed with
``numpy.random.SeedSequence.spawn``-style keying, so adding a new
component never perturbs the draws of existing ones — a property the
regression tests rely on.

:meth:`RandomStreams.draws` seeds the same keyed stream by integer
arithmetic (numpy's ``SeedSequence`` mix, PCG64 seeding and step), so
its ``uniform`` is :meth:`RandomStreams.derive`'s bit for bit.  A port,
not a move to ``Philox``, which would re-seed and move every digest.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

#: numpy's ``SeedSequence`` hash and mix constants, and PCG64's multiplier.
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R, PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hash_pairs(const: int, mult: int, count: int) -> List[Tuple[int, int]]:
    """(xor, multiplier) of each of a ``SeedSequence`` hash's next ``count`` calls."""
    return [(const * pow(mult, k, 1 << 32) & M32, const * pow(mult, k + 1, 1 << 32) & M32)
            for k in range(count)]


def _hashmix(value: int, xor: int, mult: int) -> int:
    value = (value ^ xor) * mult & M32
    return value ^ value >> 16


def _seed_pool(seed: int) -> Tuple[List[int], List[Tuple[int, int]]]:
    """A keyed ``SeedSequence(seed)``'s pool before the key, and the key's hash pairs."""
    if seed < 0:
        raise ValueError(f"expected a non-negative integer seed, got {seed}")
    # A spawn key pads the entropy with zero words to the pool's size.
    words = [seed >> shift & M32 for shift in range(0, max(seed.bit_length(), 128), 32)]
    pairs = iter(_hash_pairs(INIT_A, MULT_A, 4 * len(words) + 4))
    pool = [_hashmix(word, *next(pairs)) for word in words[:4]] + words[4:]
    for src in range(len(pool)):  # each word into every other pool word; draws() adds the key
        for dst in (dst for dst in range(4) if dst != src):
            value = (MIX_L * pool[dst] - MIX_R * _hashmix(pool[src], *next(pairs))) & M32
            pool[dst] = value ^ value >> 16
    return pool[:4], list(pairs)


class KeyedDraws:
    """``Generator.uniform`` (scalar bounds) of the PCG64 stream a pool seeds."""

    __slots__ = ("_state", "_inc")
    _STATE_PAIRS = _hash_pairs(INIT_B, MULT_B, 8)  # generate_state(4, np.uint64)

    def __init__(self, pool: List[int]) -> None:
        words = [(pool[i & 3] ^ x) * m & M32 for i, (x, m) in enumerate(self._STATE_PAIRS)]
        w = [word ^ word >> 16 for word in words]  # generate_state, little-endian
        initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        self._inc = (((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 | 1) & M128
        self._state = ((self._inc + initstate) * PCG_MULT + self._inc) & M128

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        span = float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0.0:
            raise ValueError("high - low < 0")
        self._state = state = (self._state * PCG_MULT + self._inc) & M128
        rot, word = state >> 122, (state >> 64 ^ state) & M64  # XSL-RR
        word = (word >> rot | word << (64 - rot)) & M64
        return float(low) + span * ((word >> 11) * (1.0 / 9007199254740992.0))


class RandomStreams:
    """Registry of independent, reproducibly-derived random generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._pool: Optional[Tuple[List[int], List[Tuple[int, int]]]] = None

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The per-stream seed mixes the root seed with a CRC32 of the
        stream name, so the mapping name→stream is stable across runs
        and independent of creation order.
        """
        if name not in self._streams:
            self._streams[name] = self.derive(name)
        return self._streams[name]

    def derive(self, name: str) -> np.random.Generator:
        """A fresh generator for ``name`` that the registry does not
        keep: the draws :meth:`stream` would start with, for names keyed
        by an id that never comes back (one request, one slice) and
        would otherwise pin a generator each for the life of the process.
        """
        key = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
        return np.random.Generator(np.random.PCG64(seq))

    def draws(self, name: str) -> KeyedDraws:
        """:meth:`derive`'s ``uniform`` draws for ``name``, seeded by
        arithmetic; the seed's share of the pool is mixed once."""
        if self._pool is None:
            self._pool = _seed_pool(self._seed)
        pool, pairs = self._pool
        key = zlib.crc32(name.encode("utf-8"))
        hashed = [(key ^ xor) * mult & M32 for xor, mult in pairs]
        mixed = [(MIX_L * word - MIX_R * (h ^ h >> 16)) & M32 for word, h in zip(pool, hashed)]
        return KeyedDraws([word ^ word >> 16 for word in mixed])


__all__ = ["KeyedDraws", "RandomStreams"]
