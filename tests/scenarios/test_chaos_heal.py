"""Heal under repeated and overlapping failures.

The chaos case the scenario engine must survive: an outage that strikes
again mid-heal.  Two layers of coverage —

* FailurePack unit level: overlapping windows on the same link are
  reference-counted, so the first window's restore does *not* bring the
  link back while the second window still holds it down;
* ScenarioRunner end-to-end: an outage → restore → outage sequence (plus
  overlapping windows and a no-detour DC outage) finishes with zero lost
  slices, zero leaked or non-committed reservations, and every outage
  record individually converged — i.e. no double-compensation and no
  double-restore.
"""

from __future__ import annotations

import pytest

from repro.drivers.base import ReservationState
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.scenarios import (
    FailurePack,
    FailureSpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
)
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# FailurePack reference counting (unit level)
# ----------------------------------------------------------------------
class TestOverlappingWindowsRefcount:
    def _pack(self, failures):
        sim = Simulator()
        testbed = build_testbed(TestbedConfig(n_enbs=2))
        topology = testbed.transport.topology
        pack = FailurePack(sim, topology, failures)
        pack.schedule()
        return sim, topology, pack

    def test_shared_link_restores_only_when_last_window_ends(self):
        sim, topology, pack = self._pack(
            [
                FailureSpec("link", "enb1-mmwave", start_s=100.0, duration_s=200.0),
                FailureSpec("link", "enb1-mmwave", start_s=200.0, duration_s=200.0),
            ]
        )
        link = topology.link("enb1-mmwave-fwd")
        assert link.up
        sim.run_until(150.0)  # inside window 1 only
        assert not link.up
        sim.run_until(350.0)  # window 1 restored at 300, window 2 holds
        assert not link.up
        assert pack._down_count
        sim.run_until(450.0)  # last window ended at 400
        assert link.up
        assert topology.link("enb1-mmwave-rev").up
        assert not pack._down_count

    def test_sequential_windows_strike_twice(self):
        sim, topology, _ = self._pack(
            [
                FailureSpec("link", "enb2-uwave", start_s=50.0, duration_s=50.0),
                FailureSpec("link", "enb2-uwave", start_s=200.0, duration_s=50.0),
            ]
        )
        link = topology.link("enb2-uwave-fwd")
        sim.run_until(75.0)
        assert not link.up
        sim.run_until(150.0)
        assert link.up  # fully restored between the strikes
        sim.run_until(225.0)
        assert not link.up  # struck again
        sim.run_until(300.0)
        assert link.up

    def test_dc_and_enb_windows_share_refcounts_with_link_windows(self):
        # An enb outage covers both uplinks; a link outage on one of
        # them overlaps.  The shared uplink must survive the enb
        # restore and come back only when the link window ends too.
        sim, topology, _ = self._pack(
            [
                FailureSpec("enb", "enb1", start_s=100.0, duration_s=100.0),
                FailureSpec("link", "enb1-mmwave", start_s=150.0, duration_s=150.0),
            ]
        )
        mmwave = topology.link("enb1-mmwave-fwd")
        uwave = topology.link("enb1-uwave-fwd")
        sim.run_until(250.0)  # enb restored at 200; link window holds mmwave
        assert uwave.up
        assert not mmwave.up
        sim.run_until(350.0)
        assert mmwave.up

    def test_unknown_link_target_is_a_scenario_error(self):
        sim = Simulator()
        testbed = build_testbed(TestbedConfig(n_enbs=2))
        with pytest.raises(ScenarioError, match="no such transport link"):
            FailurePack(
                sim,
                testbed.transport.topology,
                [FailureSpec("link", "enb9-warp", start_s=1.0, duration_s=1.0)],
            )


# ----------------------------------------------------------------------
# ScenarioRunner end-to-end chaos sequence
# ----------------------------------------------------------------------
def _chaos_spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict(
        {
            "name": "chaos-repeat-heal",
            "seed": 7,
            "horizon_s": 3_600.0,
            "epoch_s": 60.0,
            "n_enbs": 2,
            "tenants": [{"tenant_id": "chaos-embb", "max_mbps": 12.0}],
            "mobility": {"model": "commuter-tides", "n_users": 16},
            "failures": [
                # outage → restore → outage on the same link
                {"kind": "link", "target": "enb1-mmwave", "start_s": 420.0,
                 "duration_s": 300.0},
                {"kind": "link", "target": "enb1-mmwave", "start_s": 900.0,
                 "duration_s": 300.0},
                # overlapping windows on the same link (strike mid-heal)
                {"kind": "link", "target": "enb1-mmwave", "start_s": 1_500.0,
                 "duration_s": 600.0},
                {"kind": "link", "target": "enb1-mmwave", "start_s": 1_800.0,
                 "duration_s": 600.0},
                # no-detour DC outage late in the run
                {"kind": "dc", "target": "core-dc", "start_s": 2_700.0,
                 "duration_s": 300.0},
            ],
        }
    )


@pytest.fixture(scope="module")
def chaos_run():
    runner = ScenarioRunner(_chaos_spec())
    report = runner.run()
    return runner, report


class TestRepeatedFailureHeal:
    def test_every_outage_heals_individually(self, chaos_run):
        _, report = chaos_run
        assert report.outages == 5
        assert report.outages_healed == 5
        assert all(c is not None and c > 0 for c in report.heal_convergence_s)

    def test_no_lost_or_leaked_state(self, chaos_run):
        _, report = chaos_run
        assert report.lost_slices == []
        assert report.leaked_reservations == []
        assert report.clean

    def test_no_links_left_down_or_double_restored(self, chaos_run):
        runner, _ = chaos_run
        assert not runner.pack._down_count
        assert all(
            link.up for link in runner.testbed.transport.topology.links()
        )

    def test_reservations_all_committed_no_double_compensation(self, chaos_run):
        # Independent audit (same idiom as the CI failover drill): every
        # reservation still held by any driver belongs to a live slice
        # and sits in COMMITTED — a second strike mid-heal must not
        # leave a duplicate or half-rolled-back reservation behind.
        runner, _ = chaos_run
        live = {s.slice_id for s in runner.orchestrator.live_slices()}
        for driver in runner.testbed.registry.drivers():
            seen = set()
            for reservation in driver.list_reservations():
                assert reservation.slice_id in live
                assert reservation.state is ReservationState.COMMITTED
                assert reservation.slice_id not in seen, (
                    f"duplicate reservation for {reservation.slice_id} "
                    f"in domain {driver.domain}"
                )
                seen.add(reservation.slice_id)

    def test_sla_accounting_is_single_counted(self, chaos_run):
        _, report = chaos_run
        assert 0 <= report.sla_violations <= report.sla_epochs
        # Strikes and restores each appear exactly once in the timeline.
        strikes = [e for e in report.timeline if e[1] == "failure.strike"]
        restores = [e for e in report.timeline if e[1] == "failure.restore"]
        assert len(strikes) == len(restores) == 5
