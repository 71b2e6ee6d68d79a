"""Tests for PeriodicProcess."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError
from repro.sim.processes import PeriodicProcess


def test_process_fires_periodically(sim):
    fired = []
    proc = PeriodicProcess(sim, 10.0, lambda: fired.append(sim.now))
    proc.start()
    sim.run_until(35.0)
    assert fired == [10.0, 20.0, 30.0]
    assert proc.fire_count == 3


def test_stop_halts_firings(sim):
    fired = []
    proc = PeriodicProcess(sim, 5.0, lambda: fired.append(sim.now))
    proc.start()
    sim.schedule(12.0, proc.stop)
    sim.run_until(50.0)
    assert fired == [5.0, 10.0]


def test_restart_after_stop(sim):
    fired = []
    proc = PeriodicProcess(sim, 5.0, lambda: fired.append(sim.now))
    proc.start()
    sim.run_until(6.0)
    proc.stop()
    sim.run_until(20.0)
    proc.start()
    sim.run_until(26.0)
    assert fired == [5.0, 25.0]


def test_double_start_is_noop(sim):
    fired = []
    proc = PeriodicProcess(sim, 5.0, lambda: fired.append(sim.now))
    proc.start()
    proc.start()
    sim.run_until(6.0)
    assert fired == [5.0]


def test_nonpositive_period_rejected(sim):
    with pytest.raises(SimulationError):
        PeriodicProcess(sim, 0.0, lambda: None)
