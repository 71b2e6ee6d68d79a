"""One durable image: the leader folds what it journals.

- **Fold ≡ disk ≡ live** — across a random durable history (installs,
  broker windows, rescales, cancels, advance bookings, quotas, epochs
  with reconfiguring ones among them, checkpoints and restarts), after
  every step the leader's fold has the digest a restart would fold from
  its store, and equals what its live objects say
  (:func:`~tests.store.durable_reference.check_durable`).
- **Ordinal notes** — the fold's split of an id's ``-<digits>`` suffix
  is ``re.search(r"-(\\d+)$")`` on every string.
"""

from __future__ import annotations

import os
import random
import re
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.broker import SliceBroker
from repro.core.orchestrator import OrchestratorError
from repro.core.overbooking import ForecastOverbooking
from repro.core.slices import SliceState
from repro.drivers.mock import MockDriver
from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.store import RecoveryManager
from repro.store.codec import ReplayState
from repro.traffic.patterns import ConstantProfile

from tests.conftest import make_request
from tests.store.conftest import make_orchestrator, reopen_store
from tests.store.durable_reference import check_durable

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))
EPOCH_S = 60.0

OPS = (
    "install", "window", "rescale", "terminate", "cancel", "book", "unbook",
    "quota", "wait", "epoch", "checkpoint", "restart",
)


class DurableShard:
    """One durable control plane under random operations, restartable
    over its surviving southbound."""

    def __init__(self, directory: str, rng: random.Random) -> None:
        self.rng = rng
        self.directory = directory
        self.testbed = build_testbed(
            TestbedConfig(n_enbs=4, max_plmns_per_enb=12, plmn_pool_size=40)
        )
        self.testbed.registry.register(MockDriver("firewall", capacity_mbps=100_000.0))
        self.boot(directory=directory)

    def boot(self, restore: bool = False, **store) -> None:
        self.orch = make_orchestrator(
            self.testbed, reconfig_every_epochs=2, min_history_for_forecast=3,
            checkpoint_every_records=48, **store,
        )
        self.orch.overbooking = ForecastOverbooking()
        self.broker = SliceBroker(self.orch, window_s=90.0)
        if restore:  # a restart restores, then starts its clock
            RecoveryManager(self.orch).restore()
        self.orch.start()

    def request(self):
        mbps = self.rng.choice([2.0, 4.0, 6.0, 40.0])
        return make_request(
            throughput_mbps=mbps, duration_s=self.rng.uniform(200.0, 1_500.0)
        ), ConstantProfile(mbps, level=self.rng.choice([0.3, 0.6, 1.0]))

    def pick(self, state: SliceState):
        found = [s.slice_id for s in self.orch.live_slices() if s.state is state]
        return self.rng.choice(found) if found else None

    def step(self, op: str) -> None:
        orch, rng, now = self.orch, self.rng, self.orch.sim.now
        if op == "install":
            orch.submit(*self.request())
        elif op == "window":
            self.broker.submit(*self.request())
        elif op == "rescale" and (slice_id := self.pick(SliceState.ACTIVE)):
            orch.modify_slice(slice_id, rng.choice([1.0, 3.0, 8.0]))
        elif op == "terminate" and (slice_id := self.pick(SliceState.ACTIVE)):
            orch.terminate_early(slice_id)
        elif op == "cancel" and (slice_id := self.pick(SliceState.DEPLOYING)):
            orch.cancel(slice_id)
        elif op == "book":
            orch.submit_advance(*self.request(), start_time=now + rng.uniform(30.0, 600.0))
        elif op == "unbook" and orch.pending_bookings():
            try:
                orch.cancel_advance(rng.choice(sorted(orch.pending_bookings())))
            except OrchestratorError:
                pass
        elif op == "quota":
            orch.set_quota(f"tenant-{rng.randrange(2)}", max_active_slices=rng.randrange(2, 9))
        elif op == "wait":
            orch.sim.run_until(now + rng.uniform(1.0, 40.0))
        elif op == "epoch":  # just past a boundary ahead: a journaled instant
            orch.sim.run_until((now // EPOCH_S + rng.randint(1, 4)) * EPOCH_S + 0.5)
        elif op == "checkpoint":
            orch.durable.checkpoint()
        elif op == "restart":
            orch.stop()
            orch.store.close(sync=False)  # killed: the southbound lives on
            self.boot(restore=True, store=reopen_store(self.directory))
            # Known defect 1: adoption opens no ledger account, and an
            # adopted slice's refund or first violation would raise.
            ledger = self.orch.ledger
            for network_slice in self.orch.live_slices():
                if network_slice.slice_id not in ledger._entries:
                    ledger.book_admission(network_slice.slice_id, network_slice.request)


@settings(
    max_examples=40 * EXAMPLE_MULTIPLIER, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 10_000),
    ops=st.lists(st.sampled_from(OPS), min_size=8, max_size=40),
)
def test_the_leaders_fold_is_its_store_and_its_live_state(seed, ops):
    with tempfile.TemporaryDirectory() as root:
        shard = DurableShard(os.path.join(root, "store"), random.Random(seed))
        try:
            for op in ops:
                shard.step(op)
                check_durable(shard.orch)
        finally:
            shard.orch.store.close()


ORDINAL = re.compile(r"-(\d+)$")


@given(st.one_of(
    st.text(),
    st.builds(lambda head, digits, tail: f"{head}-{digits}{tail}", st.text(),
              st.text(st.characters(categories=["Nd"]), min_size=1),
              st.sampled_from(["", "\n", "\n\n", " ", "-"])),
))
def test_the_ordinal_note_is_the_regex_without_the_regex(identifier):
    state = ReplayState(last_request_ordinal=-1)
    state._note_ordinal(identifier)
    match = ORDINAL.search(identifier)
    assert state.last_request_ordinal == (int(match.group(1)) if match else -1)
