"""Seeded random-stream registry.

Every stochastic component (traffic sampling, CQI processes, request
arrivals, ...) draws from its own named :class:`numpy.random.Generator`.
Streams are derived from a single experiment seed with
``numpy.random.SeedSequence.spawn``-style keying, so adding a new
component never perturbs the draws of existing ones — a property the
regression tests rely on.

Names keyed by an id that never comes back (one request, one slice)
draw through :meth:`RandomStreams.draws` instead: a counter-based
SplitMix64 sequence whose key mixes the seed with the name, so the i-th
draw depends on (seed, name, i) alone, nothing is kept, and integer
arithmetic plus one exact scaling gives the same bits on every host.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Sequence

import numpy as np

#: SplitMix64's increment (the golden gamma) and its finaliser's multipliers.
GAMMA, MIX_A, MIX_B = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
M64 = (1 << 64) - 1


def _mix(z: int) -> int:
    """SplitMix64's finaliser of one 64-bit word, or of each in a ``uint64`` array."""
    z = (z ^ z >> 30) * MIX_A & M64
    z = (z ^ z >> 27) * MIX_B & M64
    return z ^ z >> 31


class KeyedDraws:
    """``Generator.uniform`` (scalar bounds) of one keyed counter: the
    i-th draw (from 0) is ``low + (high - low) · (mix(key + i·γ) >> 11) · 2⁻⁵³``."""

    __slots__ = ("_counter",)

    def __init__(self, key: int) -> None:
        self._counter = key

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        span = float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0.0:
            raise ValueError("high - low < 0")
        return float(low) + span * self._unit()

    def _unit(self) -> float:
        counter = self._counter
        self._counter = counter + GAMMA & M64
        return (_mix(counter) >> 11) * (1.0 / 9007199254740992.0)


class DrawnUniforms(KeyedDraws):
    """``uniform`` over units drawn ahead: built on an iterator over a
    :meth:`RandomStreams.draws_many` row, which stands for the counter."""

    __slots__ = ()

    def _unit(self) -> float:
        return next(self._counter)


class RandomStreams:
    """Registry of independent, reproducibly-derived random generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The per-stream seed mixes the root seed with a CRC32 of the
        stream name, so the mapping name→stream is stable across runs
        and independent of creation order.
        """
        if name not in self._streams:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def draws(self, name: str) -> KeyedDraws:
        """Keyed ``uniform`` draws for ``name`` that the registry does
        not keep, for names keyed by an id that never comes back (one
        request, one slice).  The key SplitMix64-mixes every 64-bit word
        of the seed, lowest first, into the name's CRC32."""
        return KeyedDraws(self._key(zlib.crc32(name.encode("utf-8"))))

    def draws_many(self, names: Sequence[str], count: int) -> np.ndarray:
        """Row ``i``: the first ``count`` ``draws(names[i]).uniform()``, the
        same bits, drawn for every name at once; ``DrawnUniforms(iter(row))`` scales them."""
        keys = self._key(np.array([zlib.crc32(n.encode("utf-8")) for n in names], np.uint64))
        counters = keys[:, None] + np.arange(count, dtype=np.uint64) * GAMMA
        return (_mix(counters) >> 11) * (1.0 / 9007199254740992.0)

    def _key(self, key):
        if self._seed < 0:
            raise ValueError(f"expected a non-negative integer seed, got {self._seed}")
        for shift in range(0, max(self._seed.bit_length(), 1), 64):
            key = _mix(key + GAMMA & M64 ^ self._seed >> shift & M64)
        return key


__all__ = ["DrawnUniforms", "KeyedDraws", "RandomStreams"]
