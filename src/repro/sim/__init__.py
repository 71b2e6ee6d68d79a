"""Discrete-event simulation substrate.

The demo paper runs on a live LTE testbed; every reproduction experiment
here instead advances a deterministic discrete-event simulator.  The
engine is deliberately small: a time-ordered heap of plain
``(time, priority, seq, callback)`` timers, and a seeded random-stream
registry so that every experiment is reproducible bit-for-bit from its
seed.
"""

from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

__all__ = [
    "Simulator",
    "RandomStreams",
]
