"""Fault-tolerant chunked parallel execution -- the sweep engine.

The synthetic sweeps dispatch up to 100 000 independent modeling tasks per
cell. A bare ``Pool.map`` handles the happy path but fails the operational
requirements of runs that take hours: a single flaky task aborts the whole
sweep without saying *which* task died, a hung worker hangs the sweep
forever, and there is no visibility into progress. This engine keeps the
strict determinism contract of :mod:`repro.parallel.pool` (pre-spawned
per-task RNGs, results reassembled in task order, bit-identical serial and
parallel runs) and adds:

* **Failure identity** -- a task that raises is reported as a
  :class:`TaskError` carrying the task's index, its ``repr``, and the
  worker-side traceback, instead of an anonymous pool crash.
* **Bounded retries** -- transient failures are re-submitted up to
  ``max_retries`` times before the engine gives up.
* **Timeout degradation** -- with ``chunk_timeout`` set, a sweep whose
  workers stop producing results does not hang: every task still
  outstanding is marked as a :class:`TaskFailure` in its result slot and
  the pool is torn down, so callers can aggregate partial results
  (mark-failed-and-continue). Timeouts never raise; they degrade.
* **Progress** -- a lightweight callback receives a :class:`Progress`
  snapshot (completed/failed/total counts, elapsed time, throughput) after
  every chunk, suitable for terminal status lines.
* **Crash-safe resume** -- with a ``journal`` (a
  :class:`repro.run.manifest.RunManifest` or anything with the same
  ``completed_tasks``/``record_task`` pair), every successful task result
  is durably journaled as soon as it is collected, and a later call over
  the same items replays journaled results verbatim instead of re-running
  them. Tasks carry pre-spawned per-index RNGs, so a killed-and-resumed run
  is bit-identical to an uninterrupted one.

Chunks run through ``imap_unordered`` so a slow chunk never blocks
completed ones from being collected; the reassembly layer writes each
result into its task-index slot, which restores task order regardless of
scheduling.

Execution is owned by :class:`EngineSession`, a reusable warm-pool object:
:func:`run_tasks` wraps one session around a single call (the historical
batch shape), while long-lived callers -- the modeling service front end --
keep a session open so worker processes and their initializer-warmed state
survive across request batches.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.obs import get_telemetry
from repro.parallel.pool import pool_context, resolve_processes
from repro.testing import faults

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy of one :func:`run_tasks` call.

    ``processes=None`` defers to ``REPRO_PROCS`` (see
    :func:`repro.parallel.pool.resolve_processes`). ``chunksize=None``
    targets four chunks per worker. ``max_retries`` bounds how often a
    failing task is re-submitted before it counts as failed.
    ``chunk_timeout`` (seconds) bounds how long the engine waits for the
    *next* chunk to complete before declaring the pool stuck; it is a
    liveness guard for the process pool and is therefore not enforced on
    the in-process serial path. ``on_error`` selects what happens to a task
    that still fails after all retries: ``"raise"`` aborts with a
    :class:`TaskError`, ``"mark"`` records a :class:`TaskFailure` in the
    task's result slot and continues.
    """

    processes: "int | None" = None
    chunksize: "int | None" = None
    max_retries: int = 1
    chunk_timeout: "float | None" = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.chunksize is not None and self.chunksize < 1:
            raise ValueError("chunksize must be positive")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive")
        if self.on_error not in ("raise", "mark"):
            raise ValueError(f"on_error must be 'raise' or 'mark', got {self.on_error!r}")


@dataclass(frozen=True)
class TaskFailure:
    """Failure marker stored in a task's result slot under ``on_error='mark'``.

    ``timed_out`` distinguishes tasks abandoned by the chunk-timeout guard
    (their true state is unknown; the worker may be hung) from tasks whose
    function raised (``error``/``traceback`` carry the worker-side detail).
    """

    index: int
    error: str
    traceback: str = ""
    attempts: int = 1
    timed_out: bool = False


class TaskError(RuntimeError):
    """A task failed after exhausting its retries; identifies the task."""

    def __init__(self, index: int, item: Any, error: str, tb: str = "", attempts: int = 1):
        self.index = index
        self.item = item
        self.error = error
        self.task_traceback = tb
        self.attempts = attempts
        item_repr = repr(item)
        if len(item_repr) > 120:
            item_repr = item_repr[:117] + "..."
        detail = f"\n--- worker traceback ---\n{tb}" if tb else ""
        super().__init__(
            f"task {index} ({item_repr}) failed after {attempts} attempt(s): {error}{detail}"
        )


@dataclass(frozen=True)
class Progress:
    """Snapshot handed to the progress callback after every chunk.

    ``skipped`` counts tasks restored from a resume journal -- work that a
    previous (killed) run already completed and that this run did not
    execute again.
    """

    completed: int
    failed: int
    retried: int
    total: int
    elapsed: float
    skipped: int = 0

    @property
    def done(self) -> int:
        return self.completed + self.failed + self.skipped

    @property
    def throughput(self) -> float:
        """Finished tasks per second of wall-clock time."""
        return self.done / self.elapsed if self.elapsed > 0 else 0.0


class _RunState:
    """Mutable per-run counters feeding the progress callback."""

    def __init__(self, total: int, progress: "Callable[[Progress], None] | None"):
        self.total = total
        self.progress = progress
        self.completed = 0
        self.failed = 0
        self.retried = 0
        self.skipped = 0
        self.started = time.perf_counter()

    def emit(self) -> None:
        if self.progress is not None:
            self.progress(
                Progress(
                    completed=self.completed,
                    failed=self.failed,
                    retried=self.retried,
                    total=self.total,
                    elapsed=time.perf_counter() - self.started,
                    skipped=self.skipped,
                )
            )


# ----------------------------------------------------------------- worker side
_WORKER: dict = {}


def _init_engine_worker(initializer, initargs) -> None:
    if initializer is not None:
        initializer(*initargs)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_chunk(payload: "tuple[Any, list[tuple[int, Any]]]") -> "list[tuple[int, bool, Any, Any]]":
    """Run one ``(fn, chunk)`` of ``(index, item)`` tasks; never raises.

    The task function travels with each chunk (pickled by reference, so the
    cost is its qualified name) rather than with the worker initializer --
    that is what lets one warm :class:`EngineSession` pool serve ``run``
    calls with different functions.

    Exceptions are captured per task as ``(message, traceback)`` string
    pairs so the records stay picklable no matter what the task raised.
    """
    fn, chunk = payload
    records: list[tuple[int, bool, Any, Any]] = []
    for index, item in chunk:
        try:
            faults.fault_point("engine.task")
            records.append((index, True, fn(item), None))
        # repro-lint: disable-next-line=EXC001 -- not swallowed: the failure is
        # captured into the task record (message + traceback) and the driver
        # re-raises it as TaskError or marks the task, per the on_error policy.
        except Exception as exc:
            records.append((index, False, None, (_describe(exc), traceback.format_exc())))
    return records


# ----------------------------------------------------------------- driver side
class EngineSession:
    """A reusable warm-pool execution session with the engine's policy.

    One-shot callers use :func:`run_tasks`, which wraps a session around a
    single ``run``. Long-lived callers -- the modeling service, drivers
    issuing many batches -- construct a session once, call :meth:`run` per
    batch, and keep the worker processes (and everything the initializer
    warmed in them: loaded networks, encoding caches, adapted weights)
    alive across calls. The worker pool is created lazily on the first
    ``run`` that needs it and sized then; :meth:`close` (or the context
    manager) tears it down.

    Each ``run`` keeps the strict determinism contract: results in item
    order, bit-identical serial/parallel/resumed execution. A chunk-timeout
    teardown marks the pool dead, so the next ``run`` transparently gets a
    fresh one. Sessions are not re-entrant: one ``run`` at a time.
    """

    def __init__(
        self,
        config: "EngineConfig | None" = None,
        initializer: "Callable[..., None] | None" = None,
        initargs: tuple = (),
    ):
        self.config = config or EngineConfig()
        self.initializer = initializer
        self.initargs = initargs
        self._pool = None
        self._serial_ready = False
        self._closed = False

    # -- lifecycle
    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def processes(self) -> int:
        """Worker count a parallel run would use (resolves ``REPRO_PROCS``)."""
        return resolve_processes(self.config.processes)

    @property
    def pool_alive(self) -> bool:
        """Whether a warm worker pool currently exists."""
        return self._pool is not None

    def warm_up(self) -> None:
        """Eagerly create the worker pool (and run the initializer).

        Long-lived callers invoke this at startup so the first request does
        not pay the fork-and-initialize cost. With one worker the session
        runs in-process; warming then just runs the initializer locally.
        """
        n_procs = self.processes
        if n_procs <= 1:
            self._ensure_serial_init()
        else:
            self._ensure_pool(n_procs)

    def close(self) -> None:
        """Tear down the worker pool; the session cannot run afterwards."""
        self._discard_pool()
        self._closed = True

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self, n_procs: int):
        if self._pool is None:
            ctx = pool_context()
            self._pool = ctx.Pool(
                n_procs,
                initializer=_init_engine_worker,
                initargs=(self.initializer, self.initargs),
            )
        return self._pool

    def _ensure_serial_init(self) -> None:
        if not self._serial_ready:
            if self.initializer is not None:
                self.initializer(*self.initargs)
            self._serial_ready = True

    # -- execution
    def run(
        self,
        fn: Callable[[T], R],
        items: "Sequence[T] | Iterable[T]",
        progress: "Callable[[Progress], None] | None" = None,
        journal=None,
        pre_pass: "Callable[[], None] | None" = None,
        shard: "tuple[int, int] | None" = None,
        claims=None,
    ) -> "list[R | TaskFailure | None]":
        """Map ``fn`` over ``items`` under the engine's fault-tolerance policy.

        Semantics match :func:`run_tasks`; see there for the ``journal``
        and ``pre_pass`` contracts. ``fn`` may differ between ``run`` calls
        on the same session -- it travels with the chunks, not the workers.

        ``shard=(i, n)`` restricts execution to the strided slice
        ``index % n == i`` of the task index space -- the static multi-host
        split. ``claims`` (a :class:`repro.run.claims.ClaimStore`) replaces
        the static split with work stealing: the session repeatedly claims
        the next unjournaled index block and runs it, until nothing
        claimable remains. Both modes fill unexecuted slots from the
        journal where possible and leave ``None`` in slots no one has
        completed yet -- a sharded result is *partial* by design and is
        made whole by ``repro.run.merge`` (or by the journal once every
        shard finishes).
        """
        if self._closed:
            raise RuntimeError("EngineSession is closed")
        if shard is not None and claims is not None:
            raise ValueError("shard and claims are mutually exclusive")
        if claims is not None and journal is None:
            raise ValueError(
                "work stealing requires a journal: claims gate dispatch, but "
                "completion truth lives in the journal"
            )
        if shard is not None and journal is None:
            raise ValueError(
                "shard requires a journal: a shard slice produces partial "
                "results whose only product is the journaled slice"
            )
        # Materialize exactly once, before slot-restoration sizes the result
        # list and before dispatch -- a consumable iterator read twice would
        # hand resume restoration and dispatch different item orders.
        items = list(items)
        if shard is not None:
            shard_index, shard_count = int(shard[0]), int(shard[1])
            if shard_count < 1 or not 0 <= shard_index < shard_count:
                raise ValueError(
                    f"invalid shard {shard!r}: expected (index, count) with "
                    "0 <= index < count"
                )
            universe = [
                index for index in range(len(items)) if index % shard_count == shard_index
            ]
        else:
            universe = list(range(len(items)))
        restored: dict[int, Any] = {}
        if journal is not None:
            restored = {
                index: value
                for index, value in journal.completed_tasks().items()
                if 0 <= index < len(items)
            }
        pending = [index for index in universe if index not in restored]
        state = _RunState(len(universe), progress)
        state.skipped = len(universe) - len(pending)
        n_procs = self.processes
        telemetry = get_telemetry()
        with telemetry.tracer.span(
            "engine.run_tasks", tasks=len(items), processes=n_procs, restored=len(restored)
        ):
            if pre_pass is not None and (pending or claims is not None):
                with telemetry.tracer.span("engine.pre_pass"):
                    pre_pass()
            results: list = [None] * len(items)
            for index, value in restored.items():
                results[index] = value
            if claims is not None:
                self._run_stealing(fn, items, n_procs, results, state, journal, claims)
            # Tiny pending sets run in-process -- unless a warm pool already
            # exists, in which case dispatching to it is cheaper than
            # duplicating the workers' warmed state here.
            elif n_procs <= 1 or (self._pool is None and len(pending) <= 1):
                self._run_serial(fn, items, pending, results, state, journal)
            else:
                self._run_pool(fn, items, n_procs, pending, results, state, journal)
            if (shard is not None or claims is not None) and journal is not None:
                # Fill slots other shards/workers journaled meanwhile; slots
                # nobody completed stay None (partial by design).
                for index, value in journal.completed_tasks().items():
                    if 0 <= index < len(items) and results[index] is None:
                        results[index] = value
        # One unified channel for the engine's operational counters: the same
        # numbers the Progress callback streams, absorbed into the metrics
        # registry once per run call.
        metrics = telemetry.metrics
        if metrics.enabled:
            metrics.counter("engine.completed").inc(state.completed)
            metrics.counter("engine.failed").inc(state.failed)
            metrics.counter("engine.retried").inc(state.retried)
            metrics.counter("engine.skipped").inc(state.skipped)
            metrics.counter("engine.timed_out").inc(
                sum(1 for r in results if isinstance(r, TaskFailure) and r.timed_out)
            )
        return results

    def _run_serial(self, fn, items, pending, results, state, journal):
        config = self.config
        if pending:
            self._ensure_serial_init()
        for index in pending:
            item = items[index]
            # A retry must see the item as the first attempt did, as on the
            # pool path, which ships a fresh pickle per attempt: a task may
            # consume its item (advance a generator) before it raises.
            shipped = pickle.dumps(item) if config.max_retries > 0 else None
            attempts = 0
            while True:
                attempts += 1
                try:
                    faults.fault_point("engine.task")
                    results[index] = fn(item if attempts == 1 else pickle.loads(shipped))
                    state.completed += 1
                    if journal is not None:
                        journal.record_task(index, results[index])
                    break
                except Exception as exc:
                    if attempts <= config.max_retries:
                        state.retried += 1
                        continue
                    if config.on_error == "raise":
                        raise TaskError(
                            index, item, _describe(exc), traceback.format_exc(), attempts
                        ) from exc
                    results[index] = TaskFailure(
                        index, _describe(exc), traceback.format_exc(), attempts
                    )
                    state.failed += 1
                    break
            state.emit()
        if not pending:
            state.emit()
        return results

    def _collect_round(self, pool, fn, pending, chunksize, timeout, results, state, journal):
        """Submit ``pending`` tasks and collect one round of chunk results.

        Returns ``(failed, missing)``: tasks whose function raised (retry
        candidates, with their error records) and tasks whose chunks never
        came back before ``timeout`` (only non-empty when the timeout guard
        fired). Successful results are journaled the moment their chunk
        arrives, so a crash loses at most the chunks still in flight.
        """
        chunks = [
            (fn, pending[i : i + chunksize]) for i in range(0, len(pending), chunksize)
        ]
        failed: list[tuple[int, Any, tuple[str, str]]] = []
        done: set[int] = set()
        iterator = pool.imap_unordered(_run_chunk, chunks)
        for _ in range(len(chunks)):
            try:
                records = iterator.next(timeout) if timeout is not None else next(iterator)
            except multiprocessing.TimeoutError:
                missing = [(index, item) for index, item in pending if index not in done]
                return failed, missing
            for index, ok, value, error in records:
                done.add(index)
                if ok:
                    results[index] = value
                    state.completed += 1
                    if journal is not None:
                        journal.record_task(index, value)
                else:
                    failed.append((index, None, error))
            state.emit()
        return failed, []

    def _run_pool(self, fn, items, n_procs, pending_indices, results, state, journal):
        config = self.config
        chunksize = config.chunksize or max(1, math.ceil(len(items) / (n_procs * 4)))
        pending: list[tuple[int, Any]] = [
            (index, items[index]) for index in pending_indices
        ]
        attempt = 1
        pool = self._ensure_pool(n_procs)
        while True:
            failed, missing = self._collect_round(
                pool, fn, pending, chunksize, config.chunk_timeout, results, state, journal
            )
            if missing:
                # The pool stopped producing results: mark everything still
                # outstanding (including this round's raise-failures, which
                # can no longer be retried) and tear the pool down so hung
                # workers cannot block interpreter exit. The session marks
                # the pool dead; the next run creates a fresh one.
                for index, _, (error, tb) in failed:
                    results[index] = TaskFailure(index, error, tb, attempt)
                    state.failed += 1
                for index, _ in missing:
                    results[index] = TaskFailure(
                        index,
                        f"no result within chunk_timeout={config.chunk_timeout:g}s",
                        attempts=attempt,
                        timed_out=True,
                    )
                    state.failed += 1
                state.emit()
                self._discard_pool()
                return results
            if failed and attempt <= config.max_retries:
                state.retried += len(failed)
                pending = [(index, items[index]) for index, _, _ in failed]
                attempt += 1
                continue
            for index, _, (error, tb) in failed:
                if config.on_error == "raise":
                    raise TaskError(index, items[index], error, tb, attempt)
                results[index] = TaskFailure(index, error, tb, attempt)
                state.failed += 1
            if failed:
                state.emit()
            return results

    def _run_stealing(self, fn, items, n_procs, results, state, journal, claims):
        """Work-stealing dispatch: claim unjournaled blocks until none remain.

        Each iteration re-reads the journal (the shared completion truth --
        other workers journal into the same run dir), leases the next block
        that still holds unjournaled work, runs exactly its unfinished
        indices through the normal serial/pool machinery, and releases the
        lease. ``claim_next`` returning ``None`` means every block is
        either fully journaled or live-claimed by another worker; what
        those workers are still computing stays ``None`` in this session's
        results.
        """
        block_size = self.config.chunksize or max(
            1, math.ceil(len(items) / max(1, n_procs) / 4)
        )
        while True:
            journaled = set(journal.completed_tasks().keys())
            claim = claims.claim_next(len(items), journaled, block_size)
            if claim is None:
                return results
            try:
                pending = [
                    index
                    for index in claim.indices()
                    if index < len(items) and index not in journaled
                ]
                if n_procs <= 1 or (self._pool is None and len(pending) <= 1):
                    self._run_serial(fn, items, pending, results, state, journal)
                else:
                    self._run_pool(fn, items, n_procs, pending, results, state, journal)
            finally:
                claims.release(claim)


def run_tasks(
    fn: Callable[[T], R],
    items: "Sequence[T] | Iterable[T]",
    config: "EngineConfig | None" = None,
    initializer: "Callable[..., None] | None" = None,
    initargs: tuple = (),
    progress: "Callable[[Progress], None] | None" = None,
    journal=None,
    pre_pass: "Callable[[], None] | None" = None,
    shard: "tuple[int, int] | None" = None,
    claims=None,
) -> "list[R | TaskFailure | None]":
    """Map ``fn`` over ``items`` under the engine's fault-tolerance policy.

    A one-shot :class:`EngineSession`: the pool (if any) lives for exactly
    this call. Results keep the order of ``items``. With one worker (or one
    item) the map runs in-process after calling ``initializer`` locally --
    the same code path the pool workers execute, so serial and parallel
    runs of deterministic tasks are bit-identical.

    ``journal`` enables crash-safe resume: completed task indices found in
    ``journal.completed_tasks()`` are restored into their result slots
    without re-execution (reported as ``Progress.skipped``), and every task
    that completes in this call is durably recorded via
    ``journal.record_task(index, result)`` as soon as its chunk is
    collected. Failures (:class:`TaskFailure`) are never journaled -- a
    resumed run gives them a fresh set of attempts.

    ``pre_pass`` runs once in the parent, after resume restoration but
    before any task is dispatched (and before workers fork), and is skipped
    when the journal already covers every task. It exists for shared-state
    preparation whose cost must be paid once rather than per worker -- e.g.
    warming the domain-adaptation weight store so workers load checkpoints
    instead of re-adapting.

    ``items`` may be any iterable, including a one-shot generator: it is
    materialized exactly once, before resume restoration sizes the result
    list and before any dispatch.

    ``shard``/``claims`` select the multi-host modes (static strided slice
    / work stealing); see :meth:`EngineSession.run`. Sharded results are
    partial: slots no shard has journaled yet are ``None``.
    """
    with EngineSession(config, initializer=initializer, initargs=initargs) as session:
        return session.run(
            fn,
            items,
            progress=progress,
            journal=journal,
            pre_pass=pre_pass,
            shard=shard,
            claims=claims,
        )
