"""The periodic process on a simulator: the orchestrator's monitoring loop.

The orchestrator schedules its own epoch, one period after the last,
so that nothing but its clock's queue points back at it; ``stop`` drops
that queue, as a process death drops its timers.
"""

from __future__ import annotations

import pytest

from repro.core.orchestrator import Orchestrator, OrchestratorConfig, OrchestratorError


def looping(sim, testbed, period: float) -> tuple:
    """An orchestrator on ``sim`` and the instants its epochs ran at."""
    orch = Orchestrator(
        sim=sim, allocator=testbed.allocator, plmn_pool=testbed.plmn_pool,
        config=OrchestratorConfig(monitoring_epoch_s=period),
    )
    fired = []
    epoch = orch._monitoring_epoch

    def recorded() -> None:
        fired.append(sim.now)
        epoch()

    orch._monitoring_epoch = recorded
    return orch, fired


def test_process_fires_periodically(sim, testbed):
    orch, fired = looping(sim, testbed, 10.0)
    orch.start()
    sim.run_until(35.0)
    assert fired == [10.0, 20.0, 30.0]
    assert orch._epoch_counter == 3


def test_stop_halts_firings(sim, testbed):
    orch, fired = looping(sim, testbed, 5.0)
    orch.start()
    sim.schedule(12.0, orch.stop)
    sim.schedule(40.0, lambda: fired.append("a timer set before the stop"))
    sim.run_until(50.0)
    assert fired == [5.0, 10.0]
    assert sim._queue == []


def test_restart_after_stop(sim, testbed):
    orch, fired = looping(sim, testbed, 5.0)
    orch.start()
    sim.run_until(6.0)
    orch.stop()
    sim.run_until(20.0)
    orch.start()
    sim.run_until(26.0)
    assert fired == [5.0, 25.0]


def test_double_start_is_noop(sim, testbed):
    orch, fired = looping(sim, testbed, 5.0)
    orch.start()
    orch.start()
    sim.run_until(6.0)
    assert fired == [5.0]


def test_nonpositive_period_rejected(sim, testbed):
    with pytest.raises(OrchestratorError):
        looping(sim, testbed, 0.0)
