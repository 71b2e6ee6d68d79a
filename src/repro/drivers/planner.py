"""Fleet-scale asynchronous install engine over the driver registry.

The window executor.  A single request is installed by the blocking
:func:`~repro.drivers.transaction.install_sequentially` on the calling
thread, which bounds deployment latency by the *sum* of every domain's
southbound latency, slice after slice.  For a window of admitted
installs :class:`BatchInstallPlanner` removes both serializations while
keeping the two-phase discipline intact, without parking a thread per
job — and without starting one at all when every backend is in-process:

- **One run queue, one drainer** — :meth:`BatchInstallPlanner.
  install_batch` drains a FIFO of *continuations* on the thread that
  called it.  Job state machines, token pools and deadlines are touched
  by that thread only, so none of them carries a lock.  A completion, a
  deadline or a freed token *enqueues* the next continuation and never
  calls it: stack depth is constant in batch size, and the order things
  happen in — hence reservation ids and the audit trail — follows from
  the order completions arrive in, which in-process backends fix.
- **One clock** — the registry's ``clock`` carries backend completions
  (:class:`~repro.drivers.mock.MockDriver`'s) and deadlines as events;
  with the run queue empty the drainer *jumps* it to the next event
  instead of sleeping, so a batch replays exactly.
- **One door** — no planner code runs on a foreign thread.  A walled
  driver's worker (see :class:`~repro.drivers.walled.Walled`)
  *posts* its future's resolution through the registry's door, and the
  drainer runs what was posted whenever it loops; with nothing
  runnable it waits on the door up to the next walled deadline.  A
  future's done-callback — resolved inline, from a clock event or from
  the door — appends the completion to the run queue.
- **Across slices** — each job owns one slice's whole prepare →
  validate → commit attempt sequence; ``max_workers`` job tokens bound
  how many are in flight.
- **Across domains** — within one job, domains with no declared
  dependency (``DriverCapabilities.prepare_after``) are prepared in
  parallel *waves*; wave N+1 launches from the continuation that
  settles wave N's last operation.
- **Per driver** — a token pool sized by each driver's
  ``DriverCapabilities.max_concurrent_installs`` caps how many
  in-flight operations a backend absorbs at once, batch-wide.  Tokens
  are granted at *submission* time: an operation either launches
  immediately or queues FIFO until a token frees — nothing ever blocks
  on a semaphore.

Southbound calls go through the drivers' futures-based lifecycle
(:meth:`~repro.drivers.base.DomainDriver.prepare_async` and friends);
how a future gets resolved is the driver's business.  The drainer only
ever *launches* operations and consumes completions, so **one hung
domain cannot stall the batch**: a per-operation deadline
(``DriverCapabilities.operation_timeout_s`` — an event on the clock, no
timer thread) converts the hung operation into a clean per-job unwind:
the job fails with :class:`~repro.drivers.transaction.OperationTimeout`,
its other domains are rolled back immediately, and the straggler is
*compensated* (rolled back or released) once its completion is seen —
by the batch while it drains, else where it lands: on the clock, at
``release_stall``, or for a walled straggler at the next drain of the
door — so no residue survives a late success.  The one wall-time
deadline is that of an op on a :class:`~repro.drivers.walled.Walled`
worker: a backend that really blocks.

Transaction semantics are the blocking executor's: any failure inside a
job unwinds *that job's* reservations in reverse registry order
(COMMITTED domains released, PREPARED ones rolled back) through a
deadline-covered async chain whose error message comes from
:func:`~repro.drivers.transaction.compose_unwind_error`; a recovery's
orphans enter that chain directly (:meth:`BatchInstallPlanner.undo`).
An exception escaping a continuation is that job's failure too
(``[planner] unexpected …``, after the same unwind) — never the batch's,
and never a job nobody settles.  Rollback notices are held in the job's
:attr:`InstallOutcome.rollbacks`, as the blocking executor holds them;
the caller surfaces them for failed installs only.  Every reservation
transition that landed is kept, in landing order, as the job's audit
*trail* (:attr:`InstallOutcome.trail`); the planner journals nothing
itself on the window path.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future
from functools import partial
from time import monotonic, perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.drivers.base import (
    DomainDriver,
    DomainSpec,
    DriverError,
    Reservation,
    ReservationState,
    ResolvedFuture,
)
from repro.drivers.registry import DriverRegistry
from repro.drivers.walled import Walled
from repro.obs import NOOP_SPAN, default_observability
from repro.drivers.transaction import (
    HOLDING,
    InstallJob,
    InstallOutcome,
    OperationTimeout,
    TransactionError,
    compose_unwind_error,
    undo_async,
)


class _TokenPool:
    """Concurrency tokens granted at submission time.

    A continuation either runs now (token taken) or queues FIFO until
    :meth:`release` hands the freed token to it.  Unlike a semaphore
    guarding a parked worker, nothing ever blocks waiting — this is
    what lets one hung operation hold its token indefinitely without
    wedging anything except itself.  Drainer-only, hence lock-free.
    """

    __slots__ = ("_free", "_waiting")

    def __init__(self, size: int) -> None:
        self._free = max(1, int(size))
        self._waiting: deque = deque()

    def acquire(self, run: "_JobRun", step: Callable[[], None]) -> bool:
        """Take a token now (True) or queue ``step`` for the next one."""
        if self._free > 0:
            self._free -= 1
            return True
        self._waiting.append((run, step))
        return False

    def release(self) -> Optional[Tuple["_JobRun", Callable[[], None]]]:
        """Give the token back; returns the waiter inheriting it."""
        if self._waiting:
            return self._waiting.popleft()
        self._free += 1
        return None


class _Op:
    """One southbound operation of one job: submitted, possibly queued
    for its driver's token, launched, and settled exactly once.

    ``settled`` flips on the drainer when the job consumes the
    operation's fate — its completion, its deadline, or the job's abort
    — whichever continuation runs first.  A completion that finds it
    already set is a *straggler*: its token goes back (only now — a
    hung backend is never handed more than its declared concurrency)
    and whatever it did is compensated.

    The deadline (``due``, in wall time for a ``walled`` op) starts at
    *submission*, before any token is granted: time spent queued behind
    a hung serial backend counts against the budget, so a cap-1 driver
    with one stuck operation cannot wedge every queued job past its
    deadline.  An op settled while still queued declines to launch when
    its token finally arrives.
    """

    __slots__ = (
        "run", "domain", "kind", "driver", "pool", "timeout_s", "walled",
        "due", "reservation", "future", "settled", "span", "queued_at",
    )

    def __init__(
        self,
        run: "_JobRun",
        domain: str,
        kind: str,
        reservation: Optional[Reservation],
    ) -> None:
        batch = run.batch
        self.run = run
        self.domain = domain
        self.kind = kind
        self.driver, pool, self.timeout_s, self.walled = batch.lanes[domain]
        # Compensations bypass the token pools: they must not queue
        # behind the very operations they are cleaning up after.
        self.pool = pool if kind != "unwind" else None
        self.reservation = reservation
        self.future: Optional[Future] = None
        self.settled = False
        # Span of this southbound op, parented to the job's carried
        # context and closed by the continuation that settles it.
        obs = batch.planner.obs
        if obs.enabled:
            self.span = obs.span(
                f"driver.{kind}",
                parent=run.job.span_context,
                label=domain,
                domain=domain,
                slice_id=run.job.slice_id,
            )
            self.queued_at: Optional[float] = perf_counter()
        else:
            self.span = NOOP_SPAN
            self.queued_at = None

    def launch(self) -> None:
        """Issue the backend call — directly at submission when a token
        was free, else as the continuation a freed token enqueues."""
        batch = self.run.batch
        if self.settled:
            # Timed out (or its job aborted) while queued: the job
            # already moved on; pass the token straight along.
            batch.release(self.pool)
            return
        if self.pool is not None and self.queued_at is not None:
            # Token-pool wait: submission → launch, including time
            # queued behind a saturated/hung backend.
            batch.planner.obs.observe(
                "planner.token_wait",
                (perf_counter() - self.queued_at) * 1000.0,
                label=self.domain,
            )
        try:
            future = self._call()
        except Exception as exc:
            # The driver's async entry point itself blew up (broken
            # backend): same path as a future that resolved to an error.
            future = ResolvedFuture(exception=exc)
        self.future = future
        future.add_done_callback(self._completed)

    def _call(self) -> Future:
        if self.kind == "prepare":
            return self.driver.prepare_async(self.run.specs[self.domain])
        if self.kind == "commit":
            return self.driver.commit_async(self.reservation)
        return undo_async(self.driver, self.reservation)

    def _completed(self, future: Future) -> None:
        """Done-callback, on the shard's thread.  While the batch
        drains, the completion joins the run queue; after
        :meth:`BatchInstallPlanner.install_batch` returned there is no
        job left to tell, only residue to undo."""
        run = self.run
        if not run.batch.enqueue(run, run.op_done, self):
            run.batch.planner._compensate(self)


class _JobRun:
    """Execution of one :class:`InstallJob`: a state machine whose
    every transition runs on the thread draining the batch's run queue
    (no locks).  Public methods are the *continuations* the queue
    carries; they may call the private steps below them, but one
    continuation never calls another — it enqueues it."""

    def __init__(self, batch: "_Batch", job: InstallJob, index: int) -> None:
        self.batch = batch
        self.job = job
        self.index = index
        self.rollbacks: List[Tuple[str, Reservation, str]] = []
        self.trail: List[Tuple[str, str, str]] = []
        self.settled = False
        self._attempt_index = 0
        self._last_error: Optional[TransactionError] = None
        self._aborted = False
        #: domain → the operation submitted there and not yet settled.
        self._live: Dict[str, _Op] = {}
        # Per-attempt state (reset by next_attempt).
        self.specs: Mapping[str, DomainSpec] = {}
        self._wave_index = 0
        self._wave_pending = 0
        self._wave_error: Optional[Tuple[str, BaseException]] = None
        self._prepared: Dict[str, Reservation] = {}
        #: Domains whose operation timed out or was dropped by an abort:
        #: the straggler path owns them, the job's unwind skips them.
        self._abandoned: set = set()
        self._to_commit: deque = deque()
        # Unwind-chain state (reset by _unwind_and_fail).
        self._to_unwind: deque = deque()
        self._unwind_errors: List[str] = []
        self._unwind_exc: Optional[BaseException] = None
        self._unwind_failed_domain = ""
        self._unwind_timed_out = False

    # ------------------------------------------------------------------
    # Continuations
    # ------------------------------------------------------------------
    def next_attempt(self) -> None:
        """Job start (a job token was granted) and what every failed
        attempt enqueues: try the next spec-map or settle as failed."""
        job, batch = self.job, self.batch
        if self._attempt_index >= len(job.attempts):
            self._settle(
                error=self._last_error
                or TransactionError(
                    "planner", f"job {job.slice_id} has no install attempts"
                )
            )
            return
        specs = job.attempts[self._attempt_index]
        self._attempt_index += 1
        batch.snapshot_registry()
        missing = [d for d in batch.lanes if d not in specs]
        surplus = [d for d in specs if d not in batch.lanes]
        if missing or surplus:
            self._fail_attempt(
                TransactionError(
                    "planner",
                    f"spec/domain mismatch (missing={missing}, surplus={surplus})",
                )
            )
            return
        self.specs = specs
        self._wave_index = 0
        self._wave_error = None
        self._prepared = {}
        self._abandoned = set()
        self._launch_wave()

    def op_done(self, op: _Op) -> None:
        """``op``'s future completed (or was cancelled)."""
        if op.pool is not None:
            # The backend finished: its token frees now, never earlier.
            self.batch.release(op.pool)
        if op.settled:
            # The deadline (or an abort) got there first.
            self.batch.planner._compensate(op)
            return
        future = op.future
        if future.cancelled():  # nobody but the backend could have
            result, exc = None, DriverError(op.domain, f"{op.kind} was cancelled")
        else:
            exc = future.exception()
            result = future.result() if exc is None else None
        self._settle_op(op, result, exc)

    def op_timed_out(self, op: _Op) -> None:
        """``op``'s deadline passed before its completion was seen."""
        if op.settled:  # completed (or aborted) first
            return
        self.batch.planner._count_timeout(op)
        # A still-queued op (future is None) never launches; a pending
        # future (backend never started) cancels cleanly — no side
        # effects.  A running one keeps going; op_done compensates it
        # at the end.
        if op.future is not None:
            op.future.cancel()
        # The straggler is owned by the compensation path from here on;
        # the job's own unwind must not touch its reservation.
        self._abandoned.add(op.domain)
        self._settle_op(
            op,
            None,
            OperationTimeout(
                op.domain, f"{op.kind} timed out after {op.timeout_s:g}s"
            ),
        )

    def undo(self) -> None:
        """Start of an undo job (:meth:`BatchInstallPlanner.undo`): the
        unwind chain over its job's ``tag``, one holding reservation."""
        reservation = self.job.tag
        self.batch.snapshot_registry()
        self._prepared = {reservation.domain: reservation}
        self._unwind_and_fail(DriverError(reservation.domain, "undo"), reservation.domain)

    def abort(self, exc: Exception) -> None:
        """An exception escaped one of this job's continuations: the
        job fails with ``[planner] unexpected …`` after unwinding what
        the attempt holds — a second escape, from that unwind, fails it
        on the spot.  Operations still out become stragglers."""
        if self.settled:
            return
        again, self._aborted = self._aborted, True
        stragglers, self._live = list(self._live.values()), {}
        for op in stragglers:
            op.settled = True
            self._abandoned.add(op.domain)
        for op in stragglers:
            if op.future is not None:
                op.future.cancel()
            op.span.finish("error", error=str(exc))
        if again:
            self._settle(
                error=compose_unwind_error(exc, "planner", self._unwind_errors)
            )
        else:
            self._unwind_and_fail(exc, "planner")

    # ------------------------------------------------------------------
    # Attempt lifecycle
    # ------------------------------------------------------------------
    def _fail_attempt(self, error: TransactionError, final: bool = False) -> None:
        self._last_error = error
        if final or isinstance(error, OperationTimeout):
            # A hung domain fails the *job*, not just the attempt:
            # further attempts would hammer the hung backend — and
            # trip the per-slice in-flight guard while the straggler
            # is still out — masking the real failure.
            self._attempt_index = len(self.job.attempts)
        self.batch.enqueue(self, self.next_attempt)

    def _settle(
        self,
        reservations: Optional[Dict[str, Reservation]] = None,
        error: Optional[TransactionError] = None,
    ) -> None:
        self.settled = True
        self.batch.job_settled(
            self,
            InstallOutcome(
                job=self.job,
                reservations=reservations,
                error=error,
                rollbacks=self.rollbacks,
                trail=self.trail,
            ),
        )

    def _submit(
        self, domain: str, kind: str, reservation: Optional[Reservation] = None
    ) -> None:
        """Start the deadline clock, then launch — now, or when the
        domain's token frees."""
        op = _Op(self, domain, kind, reservation)
        self._live[domain] = op
        self.batch.arm(op)
        if op.pool is None or op.pool.acquire(self, op.launch):
            op.launch()

    def _settle_op(
        self, op: _Op, result: Any, exc: Optional[BaseException]
    ) -> None:
        op.settled = True
        del self._live[op.domain]
        if exc is None:
            op.span.finish()
        else:
            op.span.finish("error", error=str(exc))
        if op.kind == "prepare":
            self._prepare_done(op, result, exc)
        elif op.kind == "commit":
            self._commit_done(op, exc)
        else:
            self._unwind_done(op, exc)

    # ------------------------------------------------------------------
    # Prepare phase: chained parallel waves
    # ------------------------------------------------------------------
    def _launch_wave(self) -> None:
        waves = self.batch.waves
        if self._wave_index >= len(waves):
            self._validate_and_commit()
            return
        wave = waves[self._wave_index]
        self._wave_index += 1
        self._wave_pending = len(wave)
        for domain in wave:
            self._submit(domain, "prepare")

    def _prepare_done(
        self, op: _Op, reservation: Any, exc: Optional[BaseException]
    ) -> None:
        domain = op.domain
        if exc is None and isinstance(reservation, Reservation):
            self._prepared[domain] = reservation
            self.trail.append(("prepared", domain, reservation.reservation_id))
        elif self._wave_error is None:
            self._wave_error = (
                domain,
                exc or DriverError(domain, "prepare returned no reservation"),
            )
        self._wave_pending -= 1
        if self._wave_pending > 0:
            return
        if self._wave_error is not None:
            self._unwind_and_fail(self._wave_error[1], self._wave_error[0])
        else:
            self._launch_wave()

    # ------------------------------------------------------------------
    # Validation + commit phase: registry-order chain
    # ------------------------------------------------------------------
    def _validate_and_commit(self) -> None:
        # Every wave landed, so every domain is in; registry order from
        # here on, whatever order the prepares completed in.
        self._prepared = {d: self._prepared[d] for d in self.batch.lanes}
        try:
            if self.job.validate is not None:
                self.job.validate(self._prepared)
        except Exception as exc:
            self._unwind_and_fail(exc, "planner")
            return
        self._to_commit = deque(self._prepared)
        self._commit_next()

    def _commit_next(self) -> None:
        if not self._to_commit:
            self._settle(reservations=self._prepared)
            return
        domain = self._to_commit.popleft()
        self._submit(domain, "commit", self._prepared[domain])

    def _commit_done(self, op: _Op, exc: Optional[BaseException]) -> None:
        if exc is not None:
            self._unwind_and_fail(exc, op.domain)
            return
        self.trail.append(("committed", op.domain, op.reservation.reservation_id))
        self._commit_next()

    # ------------------------------------------------------------------
    # Unwind: reverse-order async chain, deadline-covered like any
    # other southbound operation
    # ------------------------------------------------------------------
    def _unwind_and_fail(self, exc: BaseException, failed_domain: str) -> None:
        """Unwind everything this attempt prepared/committed, in
        reverse registry order, then fail the attempt with the composed
        error.  Each compensation goes through the driver's async
        surface under the same per-operation deadline as the forward
        path — a backend that hangs *during rollback* costs the job its
        deadline, not the batch its liveness (the straggler finishes in
        the background; a late rollback is itself the compensation)."""
        self._to_unwind = deque(
            self._prepared[d]
            for d in reversed(self.batch.lanes)
            if d in self._prepared and d not in self._abandoned
        )
        self._unwind_errors = []
        self._unwind_exc = exc
        self._unwind_failed_domain = failed_domain
        self._unwind_timed_out = False
        self._unwind_next()

    def _unwind_next(self) -> None:
        while self._to_unwind:
            reservation = self._to_unwind.popleft()
            if reservation.state in HOLDING:  # else: already unwound
                self._submit(reservation.domain, "unwind", reservation)
                return
        # A backend that hung mid-compensation will refuse this slice
        # (in-flight guard) until the straggler returns, and an aborted
        # job is broken for good: further attempts would only mask it.
        self._fail_attempt(
            compose_unwind_error(
                self._unwind_exc, self._unwind_failed_domain, self._unwind_errors
            ),
            final=self._unwind_timed_out or self._aborted,
        )

    def _unwind_done(self, op: _Op, exc: Optional[BaseException]) -> None:
        reservation = op.reservation
        if exc is None:
            self.trail.append(
                (
                    "released"
                    if reservation.state is ReservationState.RELEASED
                    else "rolled_back",
                    op.domain,
                    reservation.reservation_id,
                )
            )
            # The blocking executor's contract: a rollback notice only
            # for a compensation that landed.
            self.rollbacks.append((op.domain, reservation, str(self._unwind_exc)))
        else:  # a failing compensation never stops the rest
            if isinstance(exc, OperationTimeout):
                self._unwind_timed_out = True
            self._unwind_errors.append(f"[{op.domain}] {exc}")
        self._unwind_next()


class _Batch:
    """One :meth:`BatchInstallPlanner.install_batch` (or ``undo``) call: its jobs,
    the run queue they advance through, the ops under a deadline, the
    token pools, and the registry as it stood at the first job.

    Everything here belongs to the draining thread; foreign threads
    reach it only through the registry's door.
    """

    def __init__(
        self,
        planner: "BatchInstallPlanner",
        jobs: Sequence[InstallJob],
        start: Callable[..., None] = _JobRun.next_attempt,
    ) -> None:
        self.planner = planner
        self.outcomes: List[Optional[InstallOutcome]] = [None] * len(jobs)
        self._unsettled = len(jobs)
        self._job_tokens = _TokenPool(planner.max_workers)
        #: Registry snapshot (see snapshot_registry), in registry order:
        #: domain → (driver, token pool, per-op deadline, walled).
        self.lanes: Dict[str, Tuple[DomainDriver, _TokenPool, Optional[float], bool]] = {}
        self.waves: Optional[List[List[str]]] = None
        self.registry = planner.registry
        self.clock = planner.registry.clock
        self._queue: deque = deque()
        #: Set once the batch returned: later completions are stragglers.
        self.closed = False
        #: Ops under a deadline not yet on the clock (walled ones never
        #: are); settled ones drop out when the drainer next idles.
        self._timed: List[_Op] = []
        for index, job in enumerate(jobs):
            run = _JobRun(self, job, index)
            step = partial(start, run)
            if self._job_tokens.acquire(run, step):
                self.enqueue(run, step)

    def snapshot_registry(self) -> None:
        """Resolve drivers, caps, deadlines and prepare waves once per
        batch — from the first job's first continuation rather than the
        prologue, so a driver whose ``capabilities()`` raises fails
        jobs, not :meth:`BatchInstallPlanner.install_batch`."""
        if self.waves is not None:
            return
        planner = self.planner
        lanes = {}
        for driver in planner.registry.drivers():
            capabilities = driver.capabilities()
            lanes[driver.domain] = (
                driver,
                _TokenPool(capabilities.max_concurrent_installs),
                capabilities.operation_timeout_s,
                isinstance(driver, Walled),
            )
        self.lanes = lanes
        self.waves = planner.prepare_waves(list(lanes))

    # ------------------------------------------------------------------
    # Run queue
    # ------------------------------------------------------------------
    def enqueue(self, run: _JobRun, step: Callable[..., None], *args: Any) -> bool:
        """Append a continuation.  False once the batch has returned
        (the caller then owns whatever it was about to report)."""
        if self.closed:
            return False
        self._queue.append((run, step, args))
        return True

    def release(self, pool: _TokenPool) -> None:
        """Return a token; the waiter inheriting it is enqueued."""
        waiter = pool.release()
        if waiter is not None:
            self.enqueue(*waiter)

    def arm(self, op: _Op) -> None:
        """Start ``op``'s deadline, if its lane has one."""
        if op.timeout_s is not None and op.timeout_s > 0:
            op.due = (monotonic() if op.walled else self.clock.now) + op.timeout_s
            self._timed.append(op)

    def job_settled(self, run: _JobRun, outcome: InstallOutcome) -> None:
        self.outcomes[run.index] = outcome
        self._unsettled -= 1
        self.release(self._job_tokens)

    def drain(self) -> List[InstallOutcome]:
        """Run what the door holds and the queued continuations until
        every job settled; when none is queued, :meth:`_idle` moves time
        on.  ``KeyboardInterrupt``/``SystemExit`` propagate; whatever is
        still out then compensates itself on completion."""
        run_posted = self.registry.run_posted
        try:
            while self._unsettled:
                run_posted()
                steps, self._queue = self._queue, deque()
                if not steps:
                    self._idle()
                for step in steps:
                    self._run(*step)
        finally:
            self.closed = True
            steps, self._queue = self._queue, deque()
        # Stragglers that completed between the last job settling and
        # the close: compensated here; later ones where they complete.
        for step in steps:
            self._run(*step)
        return self.outcomes  # type: ignore[return-value]

    def _run(self, run: _JobRun, step: Callable[..., None], args: Tuple) -> None:
        try:
            step(*args)
        except Exception as exc:
            try:
                run.abort(exc)
            except Exception as again:
                run.abort(again)

    def _idle(self) -> None:
        """Nothing is runnable: expire the walled ops past their
        deadline, put the others' deadlines on the clock and jump it to
        its next event.  With none left, wait on the door until the next
        wall-time deadline, and run what was posted."""
        clock, now, expired = self.clock, monotonic(), False
        timed, self._timed = self._timed, []
        for op in timed:
            if op.settled:
                continue
            if not op.walled:
                clock.schedule_at(  # a completion at the same instant goes first
                    op.due, partial(self.enqueue, op.run, op.run.op_timed_out, op), priority=1
                )
            elif op.due <= now:
                expired = True
                self._run(op.run, op.run.op_timed_out, (op,))
            else:
                self._timed.append(op)
        if expired or clock.step():
            return
        walled = self._timed
        self.registry.run_posted(
            min(op.due for op in walled) - monotonic() if walled else None
        )


class BatchInstallPlanner:
    """Asynchronous two-phase installer over a :class:`DriverRegistry`.

    Args:
        registry: The southbound drivers, in install order.
        max_workers: How many jobs may be *in flight* concurrently (a
            token pool, not a thread pool — the engine parks no thread
            per job); ``1`` yields job-by-job order.
        batch_size: :meth:`install` splits larger job lists into groups
            of this size so one giant admission burst cannot monopolize
            the drivers for unbounded wall-clock time.
        on_record: Durability hook for the one reservation transition
            no job's :attr:`InstallOutcome.trail` can carry — a
            straggler compensated after its job settled:
            ``("driver.compensated", domain, slice_id,
            reservation_id)``.  Called on the shard's thread; a raising
            hook is swallowed — residue removal never depends on the
            audit trail.
        obs: Control-plane observability sink (spans per southbound
            op, token-wait histograms).  Defaults to the process-wide
            :func:`~repro.obs.registry.default_observability` — the
            shared no-op unless ``REPRO_OBS_ENABLED=1``; an
            observability-enabled orchestrator passes its own.
    """

    def __init__(
        self,
        registry: DriverRegistry,
        max_workers: int = 8,
        batch_size: int = 16,
        on_record: Optional[Callable[[str, str, str, str], None]] = None,
        obs: Any = None,
    ) -> None:
        if max_workers < 1:
            raise DriverError("planner", f"max_workers must be >= 1, got {max_workers}")
        if batch_size < 1:
            raise DriverError("planner", f"batch_size must be >= 1, got {batch_size}")
        self.registry = registry
        self.max_workers = int(max_workers)
        self.batch_size = int(batch_size)
        self.on_record = on_record
        self.obs = obs if obs is not None else default_observability()
        #: Completed-batch counters (telemetry/debugging).
        self.batches_run = 0
        self.jobs_installed = 0
        self.jobs_failed = 0
        #: Southbound operations that blew their deadline.
        self.ops_timed_out = 0
        #: Late completions of timed-out operations that the background
        #: compensation path had to roll back or release.
        self.ops_compensated = 0
        # Northbound-worthy incidents (op timeouts, compensations)
        # buffered for the orchestrator to put on its event feed.
        self._pending_events: List[Tuple[str, Dict[str, Any]]] = []

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, jobs: Sequence[InstallJob]) -> List[List[InstallJob]]:
        """Group pending installs into bounded batches, in order."""
        jobs = list(jobs)
        return [
            jobs[i : i + self.batch_size]
            for i in range(0, len(jobs), self.batch_size)
        ]

    def prepare_waves(self, domains: Sequence[str]) -> List[List[str]]:
        """Partition ``domains`` into parallel prepare waves honouring
        every driver's declared ``prepare_after`` dependencies
        (dependencies outside ``domains`` are treated as satisfied; a
        dependency cycle degrades to registry order rather than
        deadlocking).  Computed once per :meth:`install_batch`."""
        remaining = list(domains)
        present = set(remaining)
        placed: set = set()
        waves: List[List[str]] = []
        while remaining:
            wave = [
                d
                for d in remaining
                if all(
                    dep in placed or dep not in present
                    for dep in self.registry.get(d).capabilities().prepare_after
                )
            ]
            if not wave:  # cycle — fall back to one-at-a-time registry order
                wave = [remaining[0]]
            waves.append(wave)
            placed.update(wave)
            remaining = [d for d in remaining if d not in placed]
        return waves

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def install(self, jobs: Sequence[InstallJob]) -> List[InstallOutcome]:
        """Install every job, batch by batch; outcomes keep job order."""
        outcomes: List[InstallOutcome] = []
        for batch in self.plan(jobs):
            outcomes.extend(self.install_batch(batch))
        return outcomes

    def install_batch(self, batch: Sequence[InstallJob]) -> List[InstallOutcome]:
        """Run one batch of jobs; outcomes keep job order.

        The calling thread drains the batch's run queue until every job
        settles (commits, exhausts its attempts, or times out per the
        per-operation deadline).  It only ever *launches* southbound
        operations and consumes their completions, so a hung domain
        stalls only the job that touched it.
        """
        batch = list(batch)
        if not batch:
            return []
        outcomes = _Batch(self, batch).drain()
        self.batches_run += 1
        for outcome in outcomes:
            if outcome.ok:
                self.jobs_installed += 1
            else:
                self.jobs_failed += 1
        return outcomes

    def undo(self, reservations: Sequence[Reservation]) -> List[InstallOutcome]:
        """Release each COMMITTED reservation, roll back each PREPARED
        one: a batch of one-reservation jobs started in the unwind chain
        (its driver's deadline, the token bypass, straggler compensation).
        Outcomes keep input order, each job's ``tag`` its reservation; a
        rollback notice marks an undo that landed.  Job counters stay."""
        jobs = [InstallJob(r.slice_id, attempts=(), tag=r) for r in reservations]
        if not jobs:
            return []
        return _Batch(self, jobs, _JobRun.undo).drain()

    def status(self) -> Dict[str, int]:
        """The planner's counters, as the dashboard and the admin state
        report them."""
        return {name: getattr(self, name) for name in (
            "batches_run", "jobs_installed", "jobs_failed", "ops_timed_out", "ops_compensated",
        )}

    # ------------------------------------------------------------------
    # Deadlines + compensation
    # ------------------------------------------------------------------
    def _count_timeout(self, op: _Op) -> None:
        self.ops_timed_out += 1
        self._pending_events.append(
            (
                "driver.op_timeout",
                {
                    "domain": op.domain,
                    "kind": op.kind,
                    "slice_id": op.run.job.slice_id,
                    "timeout_s": op.timeout_s,
                },
            )
        )

    def drain_events(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Run what the door holds — a walled straggler that landed
        after its batch returned is compensated and journaled here —
        then hand buffered incidents to the caller and clear."""
        self.registry.run_posted()
        drained, self._pending_events = self._pending_events, []
        return drained

    def _compensate(self, op: _Op) -> None:
        """A settled-without-it operation eventually finished: undo
        whatever it did, best-effort, so a late success leaves zero
        residue (the owning job already unwound without this domain).
        The undo goes through the driver's async surface — nothing may
        block on a backend that has just proven it can hang — except
        for a walled straggler of a returned batch: that one came
        through the door at a drain point, which drains its undo too,
        under the driver's deadline."""
        future = op.future
        if future.cancelled():
            return  # never touched the backend
        try:
            if op.kind != "prepare":
                reservation = op.reservation
            elif future.exception() is None:
                reservation = future.result()
            else:
                return  # the straggler failed on its own — no hold
            if not isinstance(reservation, Reservation) or (
                reservation.state not in HOLDING
            ):
                return  # nothing held; a late unwind that landed undid itself
            self.ops_compensated += 1
            self._pending_events.append(
                (
                    "driver.compensated",
                    {
                        "domain": op.domain,
                        "kind": op.kind,
                        "slice_id": op.run.job.slice_id,
                    },
                )
            )
            if op.walled and op.run.batch.closed:
                (outcome,) = self.undo([reservation])
                self._compensation_done(reservation, bool(outcome.rollbacks))
                return
            undo_async(op.driver, reservation).add_done_callback(
                lambda done: self._compensation_done(
                    reservation, not done.cancelled() and done.exception() is None
                )
            )
        except Exception:  # pragma: no cover - best effort by design
            pass

    def _compensation_done(self, reservation: Reservation, landed: bool) -> None:
        """Fire the durability hook for a compensation that landed; an
        audit failure never matters to the backend (and a closed
        journal drops writes by design)."""
        if self.on_record is None or not landed:
            return
        try:
            self.on_record(
                "driver.compensated",
                reservation.domain,
                reservation.slice_id,
                reservation.reservation_id,
            )
        except Exception:  # pragma: no cover - audit is best-effort
            pass


__all__ = [
    "BatchInstallPlanner",
    "InstallJob",
    "InstallOutcome",
]
