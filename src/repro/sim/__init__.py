"""Discrete-event simulation substrate.

The demo paper runs on a live LTE testbed; every reproduction experiment
here instead advances a deterministic discrete-event simulator.  The
engine is deliberately small: a time-ordered event heap with named
timers, and a seeded random-stream registry so that every experiment is
reproducible bit-for-bit from its seed.
"""

from repro.sim.engine import Event, EventHandle, Simulator
from repro.sim.randomness import RandomStreams

__all__ = [
    "Event",
    "EventHandle",
    "Simulator",
    "RandomStreams",
]
