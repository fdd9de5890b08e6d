"""Tests of the fault-tolerant sweep engine (repro.parallel.engine)."""

import time

import numpy as np
import pytest

from repro.parallel.engine import (
    EngineConfig,
    Progress,
    TaskError,
    TaskFailure,
    run_tasks,
)


def square(x):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


_FLAKY_DIR = {"path": None}


def _set_flaky_dir(path):
    _FLAKY_DIR["path"] = path


def flaky(x):
    """Fails the first time each item is seen, succeeds on retry.

    Coordination across processes goes through marker files, so the
    behaviour is identical for the serial and the pool path.
    """
    marker = _FLAKY_DIR["path"] / f"seen-{x}"
    if not marker.exists():
        marker.write_text("")
        raise RuntimeError(f"transient failure for {x}")
    return x


def draw_then_fail_once(gen):
    """Consumes its item (a generator draw), then fails on the first task
    attempt in the whole run only."""
    value = gen.random()
    marker = _FLAKY_DIR["path"] / "drawn"
    if not marker.exists():
        marker.write_text("")
        raise RuntimeError("transient failure after a draw")
    return value


def sleepy(x):
    if x == 1:
        time.sleep(30.0)
    return x


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"chunksize": 0},
            {"chunk_timeout": 0.0},
            {"on_error": "explode"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)


class TestOrdering:
    @pytest.mark.parametrize("processes", [1, 3])
    def test_task_order_restored(self, processes):
        items = list(range(23))
        out = run_tasks(square, items, EngineConfig(processes=processes, chunksize=2))
        assert out == [x * x for x in items]

    def test_serial_equals_parallel(self):
        items = list(range(17))
        serial = run_tasks(square, items, EngineConfig(processes=1))
        parallel = run_tasks(square, items, EngineConfig(processes=2, chunksize=3))
        assert serial == parallel


class TestExceptionPropagation:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_failure_names_the_task(self, processes):
        with pytest.raises(TaskError) as exc_info:
            run_tasks(
                fail_on_three,
                range(6),
                EngineConfig(processes=processes, max_retries=0, chunksize=1),
            )
        error = exc_info.value
        assert error.index == 3
        assert "ValueError: three is right out" in str(error)
        assert "3" in str(error)

    def test_worker_traceback_carried(self):
        with pytest.raises(TaskError) as exc_info:
            run_tasks(
                fail_on_three,
                range(6),
                EngineConfig(processes=2, max_retries=0, chunksize=2),
            )
        assert "fail_on_three" in exc_info.value.task_traceback

    @pytest.mark.parametrize("processes", [1, 2])
    def test_mark_mode_keeps_other_results(self, processes):
        out = run_tasks(
            fail_on_three,
            range(6),
            EngineConfig(processes=processes, max_retries=0, on_error="mark", chunksize=2),
        )
        assert [r for r in out if not isinstance(r, TaskFailure)] == [0, 1, 2, 4, 5]
        (failure,) = [r for r in out if isinstance(r, TaskFailure)]
        assert failure.index == 3
        assert out[3] is failure
        assert not failure.timed_out


class TestRetries:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_retry_then_succeed(self, tmp_path, processes):
        out = run_tasks(
            flaky,
            range(5),
            EngineConfig(processes=processes, max_retries=1, chunksize=2),
            initializer=_set_flaky_dir,
            initargs=(tmp_path,),
        )
        assert out == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_retry_runs_on_the_item_as_submitted(self, tmp_path, processes):
        """A retry sees the item as the first attempt did, not as that
        attempt left it: the same stream in serial and pool mode."""
        out = run_tasks(
            draw_then_fail_once,
            [np.random.default_rng(5), np.random.default_rng(6)],
            EngineConfig(processes=processes, max_retries=1, chunksize=1),
            initializer=_set_flaky_dir,
            initargs=(tmp_path,),
        )
        assert out == [np.random.default_rng(5).random(), np.random.default_rng(6).random()]

    def test_retries_are_bounded(self):
        with pytest.raises(TaskError) as exc_info:
            run_tasks(
                fail_on_three,
                range(6),
                EngineConfig(processes=1, max_retries=2),
            )
        assert exc_info.value.attempts == 3  # 1 initial + 2 retries


class TestTimeout:
    def test_timeout_marks_failed_and_continues(self):
        started = time.monotonic()
        out = run_tasks(
            sleepy,
            range(4),
            EngineConfig(processes=2, chunksize=1, chunk_timeout=1.0, on_error="mark"),
        )
        elapsed = time.monotonic() - started
        assert elapsed < 20.0, "the engine must not wait for the hung worker"
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.timed_out
        assert "chunk_timeout" in failure.error
        # Tasks that completed before the stall are kept.
        assert 0 in out and (2 in out or 3 in out)


class TestProgress:
    def test_progress_reaches_total(self):
        events: list[Progress] = []
        run_tasks(
            square,
            range(8),
            EngineConfig(processes=2, chunksize=2),
            progress=events.append,
        )
        assert events, "progress callback never invoked"
        assert all(e.total == 8 for e in events)
        dones = [e.done for e in events]
        assert dones == sorted(dones)
        assert dones[-1] == 8
        assert events[-1].throughput > 0

    def test_progress_counts_failures(self):
        events: list[Progress] = []
        run_tasks(
            fail_on_three,
            range(5),
            EngineConfig(processes=1, max_retries=0, on_error="mark"),
            progress=events.append,
        )
        assert events[-1].failed == 1
        assert events[-1].completed == 4
