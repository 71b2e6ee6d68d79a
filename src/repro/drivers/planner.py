"""Fleet-scale asynchronous install engine over the driver registry.

The window executor.  A single request is installed by the blocking
:class:`~repro.drivers.transaction.InstallTransaction` on the calling
thread, which bounds deployment latency by the *sum* of every domain's
southbound latency, slice after slice.  For a window of admitted
installs :class:`BatchInstallPlanner` removes both serializations while
keeping the two-phase discipline intact, without parking a worker
thread per job:

- **Across slices** — a batch of admitted installs runs as concurrent
  event-driven jobs; each job is a small state machine advanced by
  future-completion callbacks, owning one slice's whole
  prepare → validate → commit attempt sequence.
- **Across domains** — within one job, domains with no declared
  dependency (``DriverCapabilities.prepare_after``) are prepared in
  parallel *waves*; wave N+1 launches from the completion callback of
  wave N's last future (future-chaining, no barrier thread).
- **Per driver** — a token pool sized by each driver's
  ``DriverCapabilities.max_concurrent_installs`` caps how many
  in-flight operations a backend absorbs at once, batch-wide.  Tokens
  are granted at *submission* time: an operation either launches
  immediately or queues FIFO until a token frees — no thread ever
  blocks on a semaphore.  Serial backends (all simulator adapters)
  additionally self-serialize via :class:`~repro.drivers.base.
  BaseDriver`'s locking discipline, so correctness never depends on the
  planner being the only caller.

Southbound calls go through the drivers' futures-based lifecycle
(:meth:`~repro.drivers.base.DomainDriver.prepare_async` and friends).
Blocking adapters get the base-class shim (one daemon thread per call —
the reason a batch of one is not worth routing through here);
natively asynchronous backends resolve futures from their own
completion machinery.  Because the engine itself never parks a thread
per job, **one hung domain cannot stall the batch**: every other job's
waves keep chaining on their own completions, and a per-operation
deadline (``DriverCapabilities.operation_timeout_s``, or the planner's
``operation_timeout_s`` default) converts the hung operation into a
clean per-job unwind — the job fails with
:class:`~repro.drivers.transaction.OperationTimeout`, its other domains
are rolled back immediately, and the straggling operation is
*compensated* in the background (rolled back or released) the moment it
eventually completes, so no residue survives a late success.

Transaction semantics are the blocking executor's: any failure inside a
job unwinds *that job's* reservations in reverse registry order
(COMMITTED domains released, PREPARED ones rolled back) through a
deadline-covered async chain whose error message comes from
:func:`~repro.drivers.transaction.compose_unwind_error`; the invariant
holds regardless of how jobs interleave because each job only ever
touches its own slice's reservations.  Rollback notifications are
buffered per job and surfaced only for jobs that ultimately fail — a
slice that succeeds on a later attempt (e.g. the next candidate
datacenter) puts no ``driver.rollback`` noise on the event feed,
matching the blocking path's deferred-rollback contract.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import perf_counter
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
)
from repro.drivers.registry import DriverRegistry
from repro.obs import NOOP_SPAN, default_observability
from repro.drivers.transaction import (
    OperationTimeout,
    RollbackHook,
    TransactionError,
    compose_unwind_error,
)


@dataclass
class InstallJob:
    """One slice's install work: attempts tried in order until one
    commits end-to-end.

    Attributes:
        slice_id: The slice being installed (labels outcomes/unwinds).
        attempts: One spec-map per install attempt — typically one per
            candidate datacenter, each covering every registered domain.
        validate: Optional cross-domain check run over the full
            reservation set of an attempt before commit (raise
            :class:`DriverError` to abort the attempt).
        tag: Opaque caller correlation (e.g. the admission index).
        span_context: Optional :class:`~repro.obs.span.SpanContext` of
            the caller's per-job span.  Carried through the job state
            machine so every southbound operation span parents
            correctly no matter which completion/timer/shim thread
            closes it — this is the explicit propagation that replaces
            thread-locals in the async engine.
    """

    slice_id: str
    attempts: Sequence[Mapping[str, DomainSpec]]
    validate: Optional[Callable[[Dict[str, Reservation]], None]] = None
    tag: Any = None
    span_context: Any = None


@dataclass
class InstallOutcome:
    """What became of one :class:`InstallJob`.

    Exactly one of ``reservations`` (success: the COMMITTED reservation
    per domain) and ``error`` (every attempt failed) is set.
    ``rollbacks`` holds the unwind notifications the job buffered —
    the caller decides whether to surface them (the orchestrator only
    does for failed installs).
    """

    job: InstallJob
    reservations: Optional[Dict[str, Reservation]] = None
    error: Optional[TransactionError] = None
    rollbacks: List[Tuple[str, Reservation, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.reservations is not None


class _TokenPool:
    """Concurrency tokens granted at submission time.

    A thunk either launches immediately (token taken) or queues FIFO
    until :meth:`release` hands it the freed token.  Unlike a semaphore
    guarding a parked worker, no thread ever blocks waiting — this is
    what lets one hung operation hold its token indefinitely without
    wedging anything except itself.
    """

    def __init__(self, size: int) -> None:
        self._free = max(1, int(size))
        self._waiting: deque = deque()
        self._lock = threading.Lock()

    def acquire(self, thunk: Callable[[], None]) -> None:
        with self._lock:
            if self._free > 0:
                self._free -= 1
            else:
                self._waiting.append(thunk)
                return
        thunk()

    def release(self) -> None:
        with self._lock:
            if self._waiting:
                thunk = self._waiting.popleft()
            else:
                self._free += 1
                return
        thunk()


class _Op:
    """One in-flight southbound operation: a future, an optional
    deadline, and exactly-once settlement.

    Completion and timeout race; the first to run the job's state
    machine wins.  If the timeout wins, the operation's eventual
    completion is routed to the planner's *compensation* path (its
    driver token is only returned when the backend actually finishes),
    so a late success leaves no residue and a hung backend is never
    hammered beyond its declared concurrency.

    The deadline is armed at *submission* (:meth:`arm`), before any
    token is granted: time spent queued behind a hung serial backend
    counts against the budget, so a cap-1 driver with one stuck
    operation cannot wedge every queued job past its deadline.  An op
    that times out while still queued simply declines to launch when
    its token finally arrives.
    """

    __slots__ = (
        "run", "domain", "kind", "driver", "pool", "timeout_s",
        "reservation", "future", "timer", "_state_lock", "_timed_out",
        "_completed", "span", "queued_at",
    )

    def __init__(
        self,
        run: "_JobRun",
        domain: str,
        kind: str,
        driver: DomainDriver,
        pool: Optional[_TokenPool],
        timeout_s: Optional[float],
        reservation: Optional[Reservation] = None,
    ) -> None:
        self.run = run
        self.domain = domain
        self.kind = kind
        self.driver = driver
        self.pool = pool
        self.timeout_s = timeout_s
        self.reservation = reservation
        self.future: Optional[Future] = None
        self.timer: Optional[threading.Timer] = None
        self._state_lock = threading.Lock()
        self._timed_out = False
        self._completed = False
        # Span of this southbound op, parented to the job's carried
        # context; whichever thread settles the op closes it (finish is
        # idempotent, so the completion/timeout race is safe).
        obs = run.planner.obs
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

    def arm(self) -> None:
        """Start the deadline clock — at submission, before the token."""
        if self.timeout_s is not None and self.timeout_s > 0:
            self.timer = threading.Timer(self.timeout_s, self._on_timeout)
            self.timer.daemon = True
            self.timer.start()

    def should_launch(self) -> bool:
        """Whether the backend call should still be issued once the
        driver token arrives (False after a queued-op timeout)."""
        with self._state_lock:
            return not self._timed_out

    def attach(self, future: Future) -> None:
        """Subscribe to the launched future's completion."""
        with self._state_lock:
            self.future = future
            timed_out = self._timed_out
        if timed_out:
            # Deadline fired between the launch decision and here —
            # best-effort cancel; the done callback routes the rest to
            # compensation either way.
            future.cancel()
        future.add_done_callback(self._on_done)

    def fail_now(self, exc: BaseException) -> None:
        """The driver's async entry point itself blew up (broken
        backend): settle immediately, returning the token."""
        if self.timer is not None:
            self.timer.cancel()
        with self._state_lock:
            if self._completed or self._timed_out:
                already_settled = True
            else:
                self._completed = True
                already_settled = False
        if self.pool is not None:
            self.pool.release()
        if not already_settled:
            self.run._op_finished(self, None, exc)

    def _on_done(self, future: Future) -> None:
        # Fires exactly once: on completion *or* cancellation.
        if self.timer is not None:
            self.timer.cancel()
        with self._state_lock:
            self._completed = True
            timed_out = self._timed_out
        if self.pool is not None:
            self.pool.release()
        if timed_out:
            self.run.planner._compensate(self, future)
            return
        try:
            result = future.result()
            exc: Optional[BaseException] = None
        except BaseException as error:
            result, exc = None, error
        self.run._op_finished(self, result, exc)

    def _on_timeout(self) -> None:
        with self._state_lock:
            if self._completed:
                return
            self._timed_out = True
            future = self.future
        self.run.planner._count_timeout(self)
        # A still-queued op (future is None) never launches; a pending
        # future (backend never started) cancels cleanly — no side
        # effects, token returns via the done callback.  A running one
        # keeps going; compensation catches it at the end.
        if future is not None:
            future.cancel()
        self.run._op_timed_out(
            self,
            OperationTimeout(
                self.domain,
                f"{self.kind} timed out after {self.timeout_s:g}s",
            ),
        )


class _JobRun:
    """Event-driven execution of one :class:`InstallJob`.

    State transitions happen under ``_lock``; southbound submissions
    and unwinds run outside it.  Callbacks arrive on whatever thread
    resolved the future — a backend's completion timer, a shim thread,
    or the submitting thread itself for synchronous backends — so every
    method below must be thread-safe and reentrancy-tolerant.
    """

    def __init__(
        self,
        planner: "BatchInstallPlanner",
        job: InstallJob,
        index: int,
        pools: Dict[str, _TokenPool],
        on_settled: Callable[["_JobRun", InstallOutcome], None],
    ) -> None:
        self.planner = planner
        self.registry = planner.registry
        self.job = job
        self.index = index
        self.pools = pools
        self.on_settled = on_settled
        self.rollbacks: List[Tuple[str, Reservation, str]] = []
        self._lock = threading.RLock()
        self._attempt_index = 0
        self._last_error: Optional[TransactionError] = None
        self._settled = False
        # Per-attempt state (reset by _start_attempt).
        self._domains: List[str] = []
        self._specs: Mapping[str, DomainSpec] = {}
        self._waves: List[List[str]] = []
        self._wave_index = 0
        self._wave_pending = 0
        self._wave_error: Optional[Tuple[str, BaseException]] = None
        self._prepared: Dict[str, Reservation] = {}
        self._abandoned: set = set()
        self._commit_order: List[str] = []
        self._commit_index = 0
        # Unwind-chain state (reset by _unwind_and_fail).
        self._unwind_pairs: List[Tuple[DomainDriver, Reservation]] = []
        self._unwind_index = 0
        self._unwind_errors: List[str] = []
        self._unwind_exc: Optional[BaseException] = None
        self._unwind_failed_domain = ""
        self._unwind_reason = ""
        self._unwind_timed_out = False

    # ------------------------------------------------------------------
    # Attempt lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._next_attempt()

    def _next_attempt(self) -> None:
        with self._lock:
            if self._attempt_index >= len(self.job.attempts):
                error = self._last_error or TransactionError(
                    "planner", f"job {self.job.slice_id} has no install attempts"
                )
                outcome = InstallOutcome(
                    job=self.job, error=error, rollbacks=self.rollbacks
                )
            else:
                specs = self.job.attempts[self._attempt_index]
                self._attempt_index += 1
                outcome = None
        if outcome is not None:
            self._settle(outcome)
            return
        self._start_attempt(specs)

    def _start_attempt(self, specs: Mapping[str, DomainSpec]) -> None:
        domains = self.registry.domains()
        missing = [d for d in domains if d not in specs]
        surplus = [d for d in specs if d not in domains]
        if missing or surplus:
            self._fail_attempt(
                TransactionError(
                    "planner",
                    f"spec/domain mismatch (missing={missing}, surplus={surplus})",
                )
            )
            return
        with self._lock:
            self._domains = domains
            self._specs = specs
            self._waves = self.planner.prepare_waves(domains)
            self._wave_index = 0
            self._wave_error = None
            self._prepared = {}
            self._abandoned = set()
            self._commit_order = []
            self._commit_index = 0
        self._launch_wave()

    def _fail_attempt(self, exc: BaseException) -> None:
        if not isinstance(exc, TransactionError):
            exc = TransactionError(  # defensive: a broken driver must
                "planner", f"unexpected {type(exc).__name__}: {exc}"
            )  # not take down the batch
        with self._lock:
            self._last_error = exc
            if isinstance(exc, OperationTimeout):
                # A hung domain fails the *job*, not just the attempt:
                # further attempts would hammer the hung backend — and
                # trip the per-slice in-flight guard while the
                # straggler is still out — masking the real failure.
                self._attempt_index = len(self.job.attempts)
        self._next_attempt()

    def _settle(self, outcome: InstallOutcome) -> None:
        with self._lock:
            if self._settled:
                return
            self._settled = True
        self.on_settled(self, outcome)

    # ------------------------------------------------------------------
    # Prepare phase: chained parallel waves
    # ------------------------------------------------------------------
    def _launch_wave(self) -> None:
        with self._lock:
            if self._wave_index >= len(self._waves):
                wave = None
            else:
                wave = self._waves[self._wave_index]
                self._wave_index += 1
                self._wave_pending = len(wave)
        if wave is None:
            self._validate_and_commit()
            return
        for domain in wave:
            self._submit(
                domain,
                "prepare",
                lambda drv, d=domain: drv.prepare_async(self._specs[d]),
            )

    def _submit(
        self,
        domain: str,
        kind: str,
        launch: Callable[[DomainDriver], Future],
        reservation: Optional[Reservation] = None,
    ) -> None:
        """Acquire the domain's token (now or queued), then launch."""
        try:
            driver = self.registry.get(domain)
        except DriverError as exc:
            if kind == "prepare":
                self._prepare_done(domain, None, exc)
            else:
                self._commit_done(domain, exc)
            return
        pool = self.pools.get(domain)
        op = _Op(
            self,
            domain,
            kind,
            driver,
            pool,
            self.planner._timeout_for(driver),
            reservation=reservation,
        )

        def thunk() -> None:
            if not op.should_launch():
                # Timed out while queued for the token: the job already
                # moved on; pass the token straight along.
                if pool is not None:
                    pool.release()
                return
            if op.queued_at is not None:
                # Token-pool wait: submission → launch, including time
                # queued behind a saturated/hung backend.
                self.planner.obs.observe(
                    "planner.token_wait",
                    (perf_counter() - op.queued_at) * 1000.0,
                    label=domain,
                )
            try:
                future = launch(driver)
            except BaseException as exc:
                op.fail_now(exc)
                return
            op.attach(future)

        # The deadline clock starts now — queueing time behind a hung
        # serial backend counts against the budget.
        op.arm()
        if pool is None:  # driver registered mid-batch — no cap known
            thunk()
        else:
            pool.acquire(thunk)

    def _op_finished(
        self, op: _Op, result: Any, exc: Optional[BaseException]
    ) -> None:
        if exc is None:
            op.span.finish()
        else:
            op.span.finish("error", error=str(exc))
        if op.kind == "prepare":
            if exc is None and isinstance(result, Reservation):
                self.planner._record(
                    "driver.prepared", op.domain,
                    result.slice_id, result.reservation_id,
                )
            self._prepare_done(op.domain, result, exc)
        elif op.kind == "commit":
            if exc is None and op.reservation is not None:
                self.planner._record(
                    "driver.committed", op.domain,
                    op.reservation.slice_id, op.reservation.reservation_id,
                )
            self._commit_done(op.domain, exc)
        else:
            self._unwind_done(op, exc)

    def _op_timed_out(self, op: _Op, exc: OperationTimeout) -> None:
        # Deadline fired first: the span closes as an error *now*, on
        # the timer thread — the op's eventual late completion routes
        # to compensation and must not leave an in-flight span behind.
        op.span.finish("error", error=str(exc))
        # The straggler is owned by the compensation path from here on;
        # the job's own unwind must not touch its reservation.
        with self._lock:
            self._abandoned.add(op.domain)
        if op.kind == "prepare":
            self._prepare_done(op.domain, None, exc)
        elif op.kind == "commit":
            self._commit_done(op.domain, exc)
        else:
            with self._lock:
                self._unwind_timed_out = True
            self._unwind_done(op, exc)

    def _prepare_done(
        self, domain: str, reservation: Any, exc: Optional[BaseException]
    ) -> None:
        with self._lock:
            if exc is None and isinstance(reservation, Reservation):
                self._prepared[domain] = reservation
            elif self._wave_error is None:
                self._wave_error = (
                    domain,
                    exc
                    or DriverError(domain, "prepare returned no reservation"),
                )
            self._wave_pending -= 1
            if self._wave_pending > 0:
                return
            error = self._wave_error
        if error is not None:
            self._unwind_and_fail(error[1], error[0])
        else:
            self._launch_wave()

    # ------------------------------------------------------------------
    # Validation + commit phase: registry-order future chain
    # ------------------------------------------------------------------
    def _validate_and_commit(self) -> None:
        with self._lock:
            reservations = dict(self._prepared)
            self._commit_order = [d for d in self._domains if d in self._prepared]
            self._commit_index = 0
        try:
            if self.job.validate is not None:
                self.job.validate(reservations)
        except BaseException as exc:
            self._unwind_and_fail(exc, "planner")
            return
        self._commit_next()

    def _commit_next(self) -> None:
        with self._lock:
            if self._commit_index >= len(self._commit_order):
                domain = None
                outcome = InstallOutcome(
                    job=self.job,
                    reservations=dict(self._prepared),
                    rollbacks=self.rollbacks,
                )
            else:
                domain = self._commit_order[self._commit_index]
                self._commit_index += 1
                outcome = None
        if domain is None:
            self._settle(outcome)
            return
        reservation = self._prepared[domain]
        self._submit(
            domain,
            "commit",
            lambda drv, r=reservation: drv.commit_async(r),
            reservation=reservation,
        )

    def _commit_done(self, domain: str, exc: Optional[BaseException]) -> None:
        if exc is None:
            self._commit_next()
        else:
            self._unwind_and_fail(exc, domain)

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
        with self._lock:
            pairs = [
                (self.registry.get(d), self._prepared[d])
                for d in self._domains
                if d in self._prepared and d not in self._abandoned
            ]
            self._unwind_pairs = list(reversed(pairs))
            self._unwind_index = 0
            self._unwind_errors = []
            self._unwind_exc = exc
            self._unwind_failed_domain = failed_domain
            self._unwind_reason = str(exc)
            self._unwind_timed_out = False
        self._unwind_next()

    def _unwind_next(self) -> None:
        while True:
            with self._lock:
                if self._unwind_index >= len(self._unwind_pairs):
                    pair = None
                else:
                    pair = self._unwind_pairs[self._unwind_index]
                    self._unwind_index += 1
            if pair is None:
                self._finish_unwind()
                return
            driver, reservation = pair
            state = reservation.state
            if state not in (
                ReservationState.COMMITTED,
                ReservationState.PREPARED,
            ):
                continue  # already unwound — nothing to do
            # Compensations bypass the token pools: they must not queue
            # behind the very operations they are cleaning up after.
            op = _Op(
                self,
                driver.domain,
                "unwind",
                driver,
                None,
                self.planner._timeout_for(driver),
                reservation=reservation,
            )
            op.arm()
            try:
                if state is ReservationState.COMMITTED:
                    future = driver.release_async(reservation.slice_id)
                else:
                    future = driver.rollback_async(reservation)
            except BaseException as launch_exc:
                op.fail_now(launch_exc)
                return
            op.attach(future)
            return

    def _unwind_done(self, op: _Op, exc: Optional[BaseException]) -> None:
        if exc is None and op.reservation is not None:
            self.planner._record(
                "driver.released"
                if op.reservation.state is ReservationState.RELEASED
                else "driver.rolled_back",
                op.domain,
                op.reservation.slice_id,
                op.reservation.reservation_id,
            )
        with self._lock:
            if exc is None:
                # Same contract as InstallTransaction.unwind: the
                # rollback notification fires only for compensations
                # that actually landed.
                self.rollbacks.append(
                    (op.domain, op.reservation, self._unwind_reason)
                )
            else:  # a failing compensation never stops the rest
                self._unwind_errors.append(f"[{op.domain}] {exc}")
        self._unwind_next()

    def _finish_unwind(self) -> None:
        with self._lock:
            exc = self._unwind_exc
            failed_domain = self._unwind_failed_domain
            errors = list(self._unwind_errors)
            if self._unwind_timed_out:
                # A backend hung mid-compensation: its in-flight guard
                # will refuse this slice until the straggler returns,
                # so further attempts would only mask the failure.
                self._attempt_index = len(self.job.attempts)
        self._fail_attempt(compose_unwind_error(exc, failed_domain, errors))


class BatchInstallPlanner:
    """Asynchronous two-phase installer over a :class:`DriverRegistry`.

    Args:
        registry: The southbound drivers, in install order.
        max_workers: How many jobs may be *in flight* concurrently (a
            token pool, not a thread pool — the engine parks no thread
            per job); ``1`` yields deterministic job-by-job order.
        batch_size: :meth:`install` splits larger job lists into groups
            of this size so one giant admission burst cannot monopolize
            the drivers for unbounded wall-clock time.
        on_rollback: Fired (on the *calling* thread, after the batch
            completes) for each unwound reservation of each **failed**
            job — successful installs surface none of their retries.
        operation_timeout_s: Default per-operation deadline applied to
            drivers that do not declare their own
            ``DriverCapabilities.operation_timeout_s``.  ``None``: wait
            forever, like the blocking path.
        on_record: Durability hook fired for every *landed* southbound
            reservation transition — ``(record_type, domain, slice_id,
            reservation_id)`` with record types ``driver.prepared`` /
            ``driver.committed`` / ``driver.rolled_back`` /
            ``driver.released`` / ``driver.compensated``.  Called from
            completion threads, so the hook must be thread-safe (the
            control-plane journal is); a raising hook is swallowed —
            the install's fate never depends on the audit trail.
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
        on_rollback: Optional[RollbackHook] = None,
        operation_timeout_s: Optional[float] = None,
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
        self.on_rollback = on_rollback
        self.operation_timeout_s = operation_timeout_s
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
        # Timeout/compensation counters are bumped from concurrent
        # timer/completion threads; the batch counters above only ever
        # change on the calling thread.
        self._counter_lock = threading.Lock()
        # Northbound-worthy incidents (op timeouts, background
        # compensations) buffered for the orchestrator to drain on
        # *its* thread — completion threads must never touch the event
        # feed directly.
        self._pending_events: List[Tuple[str, Dict[str, Any]]] = []
        # prepare_waves cache: jobs call it from completion threads.
        self._waves_lock = threading.Lock()
        self._waves_cache: Dict[Tuple[str, ...], List[List[str]]] = {}
        self._waves_seen_version = -1

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
        deadlocking).

        The partition only depends on the domain list and the drivers'
        declared capabilities, so it is cached per domains-tuple and
        invalidated by the registry's ``version`` counter — every job
        of every attempt in a window used to recompute it from scratch.
        """
        key = tuple(domains)
        with self._waves_lock:
            if self.registry.version != self._waves_seen_version:
                self._waves_cache.clear()
                self._waves_seen_version = self.registry.version
            cached = self._waves_cache.get(key)
        if cached is not None:
            return [list(wave) for wave in cached]
        waves = self._compute_prepare_waves(domains)
        with self._waves_lock:
            self._waves_cache[key] = [list(wave) for wave in waves]
        return waves

    def _compute_prepare_waves(self, domains: Sequence[str]) -> List[List[str]]:
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
        """Run one batch of event-driven jobs; outcomes keep job order.

        The calling thread blocks until every job settles (commits,
        exhausts its attempts, or times out per the per-operation
        deadline) — but no thread is parked per job, so a hung domain
        stalls only the job that touched it.  ``on_rollback``
        notifications for failed jobs fire here, on the calling thread,
        after every job settled — completion threads never touch caller
        state.
        """
        batch = list(batch)
        if not batch:
            return []
        pools = {
            driver.domain: _TokenPool(
                max(1, driver.capabilities().max_concurrent_installs)
            )
            for driver in self.registry.drivers()
        }
        job_tokens = _TokenPool(self.max_workers)
        outcomes: List[Optional[InstallOutcome]] = [None] * len(batch)
        all_settled = threading.Event()
        pending = [len(batch)]
        pending_lock = threading.Lock()

        def settled(run: _JobRun, outcome: InstallOutcome) -> None:
            outcomes[run.index] = outcome
            job_tokens.release()
            with pending_lock:
                pending[0] -= 1
                if pending[0] == 0:
                    all_settled.set()

        runs = [
            _JobRun(self, job, index, pools, settled)
            for index, job in enumerate(batch)
        ]
        for run in runs:
            job_tokens.acquire(run.start)
        all_settled.wait()
        self._record_outcomes(outcomes)
        return outcomes  # type: ignore[return-value]

    def _record_outcomes(self, outcomes: Sequence[InstallOutcome]) -> None:
        """Batch epilogue: counters, and the ``on_rollback`` fan-out for
        failed jobs — on the calling thread, after every job settled."""
        self.batches_run += 1
        for outcome in outcomes:
            if outcome.ok:
                self.jobs_installed += 1
            else:
                self.jobs_failed += 1
                if self.on_rollback is not None:
                    for domain, reservation, reason in outcome.rollbacks:
                        self.on_rollback(domain, reservation, reason)

    # ------------------------------------------------------------------
    # Deadlines + compensation
    # ------------------------------------------------------------------
    def _timeout_for(self, driver: DomainDriver) -> Optional[float]:
        declared = driver.capabilities().operation_timeout_s
        return declared if declared is not None else self.operation_timeout_s

    def _count_timeout(self, op: "_Op") -> None:
        with self._counter_lock:
            self.ops_timed_out += 1
        self._queue_event(
            "driver.op_timeout",
            domain=op.domain,
            kind=op.kind,
            slice_id=op.run.job.slice_id,
            timeout_s=op.timeout_s,
        )

    def _count_compensation(self, op: "_Op") -> None:
        with self._counter_lock:
            self.ops_compensated += 1
        self._queue_event(
            "driver.compensated",
            domain=op.domain,
            kind=op.kind,
            slice_id=op.run.job.slice_id,
        )

    def _queue_event(self, event_type: str, **payload: Any) -> None:
        """Buffer a northbound-worthy incident (thread-safe)."""
        with self._counter_lock:
            self._pending_events.append((event_type, payload))

    def drain_events(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Hand buffered incidents to the caller (the orchestrator
        emits them on the event feed from its own thread) and clear."""
        with self._counter_lock:
            drained, self._pending_events = self._pending_events, []
        return drained

    def _record(
        self, record_type: str, domain: str, slice_id: str, reservation_id: str
    ) -> None:
        """Fire the durability hook; an audit failure never fails an
        install (and a closed journal drops writes by design)."""
        if self.on_record is None:
            return
        try:
            self.on_record(record_type, domain, slice_id, reservation_id)
        except Exception:  # pragma: no cover - audit is best-effort
            pass

    def _compensate(self, op: _Op, future: Future) -> None:
        """A timed-out operation eventually finished: undo whatever it
        did, best-effort, so a late success leaves zero residue (the
        owning job already unwound and settled without this domain)."""
        if future.cancelled():
            return  # never touched the backend
        try:
            result = future.result()
        except BaseException:
            result = None  # the straggler failed on its own — no hold
        try:
            if op.kind == "prepare":
                if isinstance(result, Reservation):
                    self._count_compensation(op)
                    op.driver.rollback(result)
                    self._record(
                        "driver.compensated", op.domain,
                        result.slice_id, result.reservation_id,
                    )
            elif op.reservation is not None:
                if op.reservation.state is ReservationState.COMMITTED:
                    self._count_compensation(op)
                    op.driver.release(op.reservation.slice_id)
                    self._record(
                        "driver.compensated", op.domain,
                        op.reservation.slice_id, op.reservation.reservation_id,
                    )
                elif op.reservation.state is ReservationState.PREPARED:
                    self._count_compensation(op)
                    op.driver.rollback(op.reservation)
                    self._record(
                        "driver.compensated", op.domain,
                        op.reservation.slice_id, op.reservation.reservation_id,
                    )
        except BaseException:  # pragma: no cover - best effort by design
            pass


__all__ = [
    "BatchInstallPlanner",
    "InstallJob",
    "InstallOutcome",
]
