"""Seeded random-stream registry.

Every stochastic component (traffic sampling, CQI processes, request
arrivals, ...) draws from its own named :class:`numpy.random.Generator`.
Streams are derived from a single experiment seed with
``numpy.random.SeedSequence.spawn``-style keying, so adding a new
component never perturbs the draws of existing ones — a property the
regression tests rely on.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RandomStreams:
    """Registry of independent, reproducibly-derived random generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Root experiment seed."""
        return self._seed

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

    def names(self) -> list[str]:
        """Names of streams created so far, in creation order."""
        return list(self._streams)

    def fork(self, salt: int) -> "RandomStreams":
        """Derive a fresh registry for a sub-experiment (e.g. one sweep point)."""
        return RandomStreams(seed=(self._seed * 1_000_003 + int(salt)) & 0x7FFFFFFF)


__all__ = ["RandomStreams"]
