"""Kill a recovery after every record it writes, then recover again.

One crashed shard whose recovery meets every branch of the
reconciliation matrix: an ACTIVE slice it re-adopts, an acknowledged
slice the southbound lost, an in-flight install the southbound
finished (re-adopted) and one it could not (re-queued), a booking
still in the future (re-promised on the new clock) and one due at the
crash instant (its install timer died with the process: promoted into
the admission queue), and a broker request its window never decided
(re-offered).

The recovering process is killed after each record it writes — the
next write raises, so nothing the process would do after it happens —
and a second recovery over the same southbound must reach what the
uninterrupted one reached: the same durable state (admission queue
order included), lifecycle timers and calendar.  Both recoveries start
their clocks at 0 over a journal whose newest instant is the first
recovery's, so the second shift is zero and the states compare as they
are.  A cut after a re-promised ``booking.committed`` is the hole the
closing checkpoint used to hide: folded with ``time = max(...)`` that
record's new-clock start met the old clock's crash time.
"""

from __future__ import annotations

from repro.core.broker import SliceBroker
from repro.core.orchestrator import Orchestrator
from repro.experiments.testbed import Testbed
from repro.store import ControlPlaneStore, RecoveryManager
from repro.traffic.patterns import ConstantProfile
from tests.store import window_scenario
from tests.store.durable_reference import live_state

MBPS = 4.0


class _Killed(Exception):
    """The recovering process died (test-only)."""


def request(name: str, mbps: float = MBPS, duration_s: float = 3_600.0):
    return window_scenario.request(name, mbps, duration_s)


def crashed(directory: str) -> Testbed:
    """Drive the scenario into ``directory`` and kill the process with
    a two-job batch in flight; returns the surviving southbound."""
    testbed = window_scenario.southbound()
    firewall = testbed.registry.get("firewall")
    first = window_scenario.control_plane(testbed, directory)
    first.start()
    for name in ("active", "lost"):
        assert first.submit(request(name), ConstantProfile(MBPS)).admitted
    first.sim.run_until(70.0)  # both ACTIVE; the t=60 epoch is durable
    for name, start in (("future", 5_000.0), ("due", first.sim.now)):
        booking = request(name, duration_s=600.0)
        assert first.submit_advance(booking, ConstantProfile(MBPS), start).admitted
    SliceBroker(first, window_s=300.0).submit(request("undecided"), ConstantProfile(MBPS))
    # The batch: "landed" parks in its firewall commit, "too-big" can
    # never hold the firewall; both outcomes die with the process.
    firewall.stall(1, kinds=("commit",))
    batch = [
        (request("landed"), ConstantProfile(MBPS)),
        (request("too-big", 30.0), ConstantProfile(30.0)),
    ]
    stalled_at_kill = []

    def kill() -> None:
        # The drainer reaches this clock event once the parked commit is
        # all that is left in flight.
        stalled_at_kill.append(firewall.stalled_ops)
        first.stop()
        first.store.close()
        firewall.release_stall()

    testbed.registry.clock.schedule(0.0, kill)
    first.install_admitted_batch(batch)
    assert stalled_at_kill == [1]
    firewall.release("slice-lost")  # the southbound loses an acked slice
    return testbed


def restarted(testbed: Testbed, directory: str) -> Orchestrator:
    return window_scenario.control_plane(
        testbed, store=ControlPlaneStore(directory, shard_id=window_scenario.SHARD)
    )


def killed_after(orchestrator: Orchestrator, last_lsn: int) -> None:
    """Every write past ``last_lsn`` kills the process instead."""
    store, real_append = orchestrator.store, orchestrator.store.append

    def append(record_type, time=0.0, **data):
        if store.last_lsn >= last_lsn:
            store.close()
            raise _Killed(record_type)
        return real_append(record_type, time=time, **data)

    store.append = append


def image(orchestrator: Orchestrator) -> dict:
    """What the cut must not change: the durable state (queue order
    included), the lifecycle timers and the calendar.  Left out: the
    process-wide request counter, and the feed's newest seq — a killed
    recovery's rebase record keeps the seqs its adoption events took
    from ever being reused, so the next one numbers on past them."""
    state = live_state(orchestrator)
    state.pop("last_request_ordinal")
    state.pop("last_event_seq")
    return {
        "state": state,
        "queue order": list(state["queued"]),
        "timers": sorted(
            (event.time, event.name)
            for event in orchestrator.sim._queue
            if not event.cancelled and event.name.startswith(("activate-", "expire-"))
        ),
        "calendar": [(b.booking_id, b.start, b.end) for b in orchestrator.calendar.bookings()],
    }


def test_every_cut_of_a_recovery_recovers_to_the_same_state(tmp_path):
    directory = str(tmp_path / "straight")
    testbed = crashed(directory)
    straight = restarted(testbed, directory)
    head = straight.store.last_lsn
    report = RecoveryManager(straight).restore()
    assert (report.slices_adopted, report.slices_lost) == (2, 1)
    assert (report.admissions_requeued, report.bookings_promoted) == (1, 1)
    assert (report.bookings_restored, report.broker_requeued) == (1, 1)
    assert report.orphans_compensated > 0
    expected = image(straight)
    assert set(expected["state"]["live"]) == {"slice-active", "slice-landed", "slice-undecided"}
    assert expected["queue order"] == ["req-too-big", "req-due"]
    written = straight.store.last_lsn - head

    for cut in range(written + 1):
        directory = str(tmp_path / f"cut-{cut}")
        testbed = crashed(directory)
        dying = restarted(testbed, directory)
        killed_after(dying, head + cut)
        try:
            RecoveryManager(dying).restore()
        except _Killed:
            pass
        else:
            assert cut == written, cut
        again = restarted(testbed, directory)
        RecoveryManager(again).restore()
        assert image(again) == expected, cut
        assert again.events.last_seq >= straight.events.last_seq, cut
        live = set(expected["state"]["live"])
        for driver in testbed.registry.drivers():
            assert {r.slice_id for r in driver.list_reservations()} == live, (cut, driver.domain)
