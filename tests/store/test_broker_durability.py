"""Durable broker windows: kill the control plane mid-window.

A batch-mode tenant's enqueue is *acknowledged* the moment ``submit``
returns — so it must survive the process.  The broker write-aheads
``broker.enqueued`` before the request joins the window; the flush
decides each request with the ``install.started`` or ``slice.rejected``
record it produces.  Recovery re-offers every enqueued-but-undecided
request through full admission (the window died before any decision
existed, so the requests were never admitted — a re-offer through
admission control, not a blind re-install).
"""

from __future__ import annotations

from repro.core.broker import SliceBroker
from repro.core.slices import SliceState
from repro.store import RecoveryManager
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.store.conftest import make_orchestrator, reopen_store

MBPS = 5.0
WINDOW_S = 300.0


def _fold(directory):
    """The replayed state a restart would boot from (snapshot + tail)."""
    store = reopen_store(directory)
    try:
        return store.replay()
    finally:
        store.close()


def test_kill_mid_window_reoffers_enqueued_requests(durable_testbed, tmp_path):
    directory = str(tmp_path / "store")
    first = make_orchestrator(durable_testbed, directory=directory)
    first.start()
    broker = SliceBroker(first, window_s=WINDOW_S)

    # Three acknowledged enqueues; the window never flushes.
    requests = [make_request(throughput_mbps=MBPS) for _ in range(3)]
    for request in requests:
        broker.submit(request, ConstantProfile(MBPS))
    assert broker.pending == 3
    assert first.live_slices() == []  # nothing decided yet

    # SIGKILL before the window closes: the enqueues are journaled,
    # the decisions never happen.
    first.store.close()

    state = _fold(directory)
    assert set(state.broker_pending) == {r.request_id for r in requests}

    # A fresh control plane re-offers every pending request.
    restarted = make_orchestrator(durable_testbed, store=reopen_store(directory))
    report = RecoveryManager(restarted).restore()
    restarted.start()
    assert report.broker_requeued == 3

    # Re-offer goes through *full* admission: plenty of capacity here,
    # so all three become live slices.
    live = restarted.live_slices()
    assert {s.request.request_id for s in live} == {
        r.request_id for r in requests
    }
    assert all(
        s.state in (SliceState.ADMITTED, SliceState.DEPLOYING, SliceState.ACTIVE)
        for s in live
    )

    # The re-offer is decided: a second crash+recovery must not
    # re-offer again (broker_pending drained by the re-offer records).
    assert _fold(directory).broker_pending == {}


def test_flushed_window_is_not_reoffered(durable_testbed, tmp_path):
    """The flush's decision records close the loop: a crash *after* the
    flush re-adopts the installed slices but re-offers nothing."""
    directory = str(tmp_path / "store")
    first = make_orchestrator(durable_testbed, directory=directory)
    first.start()
    broker = SliceBroker(first, window_s=WINDOW_S)
    requests = [make_request(throughput_mbps=MBPS) for _ in range(2)]
    for request in requests:
        broker.submit(request, ConstantProfile(MBPS))
    first.sim.run_until(WINDOW_S + 1.0)  # the window flushes
    decisions = broker.decisions
    assert len(decisions) == 2 and all(d.admitted for d in decisions)
    first.store.close()

    assert _fold(directory).broker_pending == {}

    restarted = make_orchestrator(durable_testbed, store=reopen_store(directory))
    report = RecoveryManager(restarted).restore()
    restarted.start()
    assert report.broker_requeued == 0
    assert report.slices_adopted == 2
    assert report.slices_lost == 0


def test_pending_window_rides_in_checkpoints(durable_testbed, tmp_path):
    """The ``broker_pending`` durable section: a checkpoint taken
    mid-window snapshots the queue, so recovery that starts from the
    snapshot (journal compacted) still re-offers."""
    directory = str(tmp_path / "store")
    first = make_orchestrator(durable_testbed, directory=directory)
    first.start()
    broker = SliceBroker(first, window_s=WINDOW_S)
    request = make_request(throughput_mbps=MBPS)
    broker.submit(request, ConstantProfile(MBPS))
    first.durable.checkpoint()  # compacts the journal mid-window
    first.store.close()

    restarted = make_orchestrator(durable_testbed, store=reopen_store(directory))
    report = RecoveryManager(restarted).restore()
    restarted.start()
    assert report.broker_requeued == 1
    assert [s.request.request_id for s in restarted.live_slices()] == [
        request.request_id
    ]
