"""Chunked process-pool mapping with deterministic results.

The synthetic evaluation models up to 100 000 independent functions per
sweep cell -- embarrassingly parallel work. This module holds the shared
multiprocessing conventions the rest of the library relies on:

* *Determinism*: tasks carry their own pre-spawned RNGs (see
  :func:`repro.util.seeding.spawn_generators`), and results are returned in
  task order, so serial and parallel runs are bit-identical.
* *Fork start method where available*: workers inherit read-only state
  (e.g. the pretrained network) copy-on-write instead of pickling it per
  task. On platforms without ``fork`` (Windows, and macOS defaults) the
  platform's default start method is used instead; see
  :func:`pool_context` for the implications.
* *Opt-in*: the default is serial execution; set ``processes`` explicitly or
  export ``REPRO_PROCS`` (0/1 = serial, N = pool of N, ``auto`` = CPU count).

:func:`parallel_map` is the simple entry point; the fault-tolerant sweep
engine with retries, timeouts, and progress reporting lives in
:mod:`repro.parallel.engine` and is what the sweep drivers use.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_processes(processes: "int | None" = None) -> int:
    """Resolve the worker count from the argument or ``REPRO_PROCS``."""
    if processes is None:
        env = os.environ.get("REPRO_PROCS", "").strip().lower()
        if not env:
            return 1
        if env == "auto":
            return max(os.cpu_count() or 1, 1)
        try:
            processes = int(env)
        except ValueError:
            raise ValueError(
                f"invalid REPRO_PROCS value {env!r}: expected '0' or '1' "
                "(serial), a positive worker count 'N', or 'auto' (CPU count)"
            ) from None
    if processes < 0:
        raise ValueError("processes must be non-negative")
    return max(processes, 1)


def execution_profile(processes: "int | None" = None) -> dict:
    """The resolved worker count next to the machine's CPU count.

    Benchmark records embed this so perf numbers can be read in context: a
    "4-process" run on a 1-CPU container is oversubscribed, and its worker
    stage wall-seconds, summed over processes, legitimately exceed the
    run's wall-clock ``total``.
    """
    resolved = resolve_processes(processes)
    cpu_count = os.cpu_count() or 1
    return {
        "processes": resolved,
        "cpu_count": cpu_count,
        "oversubscribed": resolved > cpu_count,
    }


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used for sweep pools.

    Prefers ``fork`` so workers inherit read-only state (the pretrained
    network, the sweep config) copy-on-write. Where ``fork`` is unavailable
    (Windows) the platform default (``spawn``) is used. Determinism
    is unaffected by the start method: tasks carry pre-spawned RNGs and
    results are reassembled in task order. The practical differences are
    that ``spawn`` re-imports worker modules (slower startup, no
    copy-on-write sharing) and requires every task function, initializer,
    and argument to be picklable.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_map(
    fn: Callable[[T], R],
    items: "Sequence[T] | Iterable[T]",
    processes: "int | None" = None,
    initializer: "Callable[..., None] | None" = None,
    initargs: tuple = (),
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across a process pool.

    Results keep the order of ``items``. With one worker the map runs
    in-process (after calling ``initializer`` locally), which keeps unit
    tests and debugging sessions free of multiprocessing machinery.

    This is a thin convenience wrapper over
    :func:`repro.parallel.engine.run_tasks` with retries disabled: a task
    that raises fails the whole map with a
    :class:`repro.parallel.engine.TaskError` naming the failing task.
    """
    from repro.parallel.engine import EngineConfig, run_tasks

    return run_tasks(
        fn,
        items,
        EngineConfig(processes=processes, max_retries=0),
        initializer=initializer,
        initargs=initargs,
    )
