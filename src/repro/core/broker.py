"""Batch-window slice broker.

The 5G slice-broker model the paper builds on (Samdanis et al., ref [3])
collects tenant requests over a *decision window* and admits the subset
that maximizes revenue — the setting where knapsack admission actually
beats first-come-first-served (experiment D1 measures the gap; this
module wires the mechanism into the live orchestrator).

Requests submitted through :class:`SliceBroker` queue until the window
closes; the batch policy then picks the winning subset against the
current free-capacity vector, winners are installed through the
orchestrator, and losers are booked as rejections.  The window trades
tenant-visible admission latency for revenue — the ``window_s`` knob is
ablated in ``benchmarks/bench_d9_batch_window.py``.

A flush is one group commit: the window's records are fsynced once,
after the last of them and before any ``on_decision`` callback runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.core.admission import AdmissionDecision, AdmissionPolicy, KnapsackPolicy
from repro.core.orchestrator import Orchestrator
from repro.core.slices import SliceRequest
from repro.store.codec import request_to_dict
from repro.traffic.patterns import TrafficProfile


class BrokerError(RuntimeError):
    """Raised on broker misuse."""


#: Notified with the final decision when a queued request's window flushes.
DecisionCallback = Callable[[AdmissionDecision], None]


@dataclass
class PendingRequest:
    """A request waiting for the current window to close."""

    request: SliceRequest
    profile: TrafficProfile
    enqueued_at: float
    on_decision: Optional[DecisionCallback] = None


class SliceBroker:
    """Windowed batch admission on top of an orchestrator.

    Args:
        orchestrator: The orchestrator that installs winning slices.
        window_s: Decision-window length; the first request of an empty
            queue arms the flush timer.
        policy: Batch admission policy (default: knapsack revenue max).
    """

    def __init__(
        self,
        orchestrator: Orchestrator,
        window_s: float = 300.0,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        if window_s <= 0:
            raise BrokerError(f"window must be positive, got {window_s}")
        self.orchestrator = orchestrator
        self.window_s = float(window_s)
        self.policy = policy or KnapsackPolicy()
        self._queue: List[PendingRequest] = []
        self._flush_armed = False
        self.windows_flushed = 0
        self.decisions: List[AdmissionDecision] = []
        # Durable windows: queued-but-undecided requests are journaled
        # (``broker.enqueued``), so the fold carries them into every
        # checkpoint and a crash mid-window no longer silently drops
        # them — recovery re-offers the survivors through online
        # admission (see RecoveryManager._requeue_broker_windows).  A
        # request's decision needs no record of its own: the
        # ``install.started`` or ``slice.rejected`` it produces ends the
        # window's claim.

    @property
    def pending(self) -> int:
        """Requests waiting in the current window."""
        return len(self._queue)

    def submit(
        self,
        request: SliceRequest,
        profile: TrafficProfile,
        on_decision: Optional[DecisionCallback] = None,
    ) -> str:
        """Enqueue a request for the current decision window.

        Unlike :meth:`Orchestrator.submit`, no decision is returned —
        the tenant hears back when the window flushes (poll
        :attr:`decisions`, the orchestrator's slice states, or pass an
        ``on_decision`` callback, which the northbound API uses to
        resolve its async operation resources).  Returns the request id
        so callers can correlate the eventual decision.
        """
        # Write-ahead before the request is visible in the window: an
        # acknowledged enqueue must survive a crash of the process.
        self.orchestrator.durable.journal(
            "broker.enqueued", request=request_to_dict(request), window_s=self.window_s
        )
        self._queue.append(
            PendingRequest(
                request=request,
                profile=profile,
                enqueued_at=self.orchestrator.sim.now,
                on_decision=on_decision,
            )
        )
        if not self._flush_armed:
            self._flush_armed = True
            self.orchestrator.sim.schedule(
                self.window_s, self.flush, name="broker-window-flush"
            )
        return request.request_id

    def flush(self) -> List[AdmissionDecision]:
        """Close the window: batch-decide and install/reject everything.

        Winners are installed as *one* concurrent batch through the
        orchestrator's :class:`~repro.drivers.planner.BatchInstallPlanner`
        — a window of N admitted slices deploys in roughly the time the
        slowest single install takes, not the sum of all N.  Since the
        planner's async rewrite the batch is also stall-isolated per
        job: a hung southbound domain delays (or, past the deadline its
        driver declares, cleanly fails) only the winners that touched
        it, never the rest of the window.

        The window is one group commit (``store.batch()``): requesters
        hear of decisions only once all of them are fsynced.
        """
        self._flush_armed = False
        if not self._queue:
            return []
        obs = self.orchestrator.obs
        flush_started = None
        if obs.enabled:
            obs.gauge_set("queue.broker_window", float(len(self._queue)))
            flush_started = perf_counter()
        batch, self._queue = self._queue, []
        self.windows_flushed += 1
        with self.orchestrator.store.batch():
            outcomes = self._decide(batch)
        for pending, outcome in zip(batch, outcomes):
            if pending.on_decision is not None:
                pending.on_decision(outcome)
        self.decisions.extend(outcomes)
        if flush_started is not None:
            obs.observe("broker.flush", (perf_counter() - flush_started) * 1000.0)
        return outcomes

    def _decide(self, batch: List[PendingRequest]) -> List[AdmissionDecision]:
        """Batch-decide ``batch``; reject the losers and install the
        winners as one batch.  Returns the decisions in window order."""
        sizes, free = self.orchestrator.size_window(
            [pending.request for pending in batch]
        )
        candidates = [
            (pending.request, size.demand) for pending, size in zip(batch, sizes)
        ]
        with self.orchestrator.obs.timed("broker.decide", label=type(self.policy).__name__):
            batch_decisions = self.policy.decide_batch(candidates, free)
        outcomes: List[Optional[AdmissionDecision]] = []
        winners: List[Tuple[int, PendingRequest]] = []
        for index, (pending, decision, size) in enumerate(
            zip(batch, batch_decisions, sizes)
        ):
            # Winners must still respect capacity promised to advance
            # bookings ("upcoming requests", paper §2) — the gate
            # Orchestrator.submit applies online, and like there a
            # winner that passes holds its window against the next.
            refusal = (
                self.orchestrator.calendar_gate(pending.request, size)
                if decision.admitted
                else decision.reason
            )
            if refusal is not None:
                # Journaled (``slice.rejected``) the moment it is
                # decided: if the install batch below dies mid-window,
                # recovery must not re-offer an already-rejected request
                # through admission (that would double-decide it).
                outcomes.append(self.orchestrator.reject(pending.request, refusal))
                continue
            outcomes.append(None)  # resolved by the batched install below
            winners.append((index, pending))
        if winners:
            # A crash inside the batch leaves undecided exactly the
            # winners whose ``install.started`` (or staging-time
            # ``slice.rejected``) never landed — recovery re-offers that
            # set, so no request is ever decided twice.
            installed = self.orchestrator.install_admitted_batch(
                [(pending.request, pending.profile) for _, pending in winners],
                sizes=[sizes[index] for index, _ in winners],
            )
            for (index, _), outcome in zip(winners, installed):
                outcomes[index] = outcome
        return outcomes


__all__ = ["BrokerError", "DecisionCallback", "PendingRequest", "SliceBroker"]
