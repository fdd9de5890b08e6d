import multiprocessing
import os

import numpy as np
import pytest

from repro.parallel import pool
from repro.parallel.pool import parallel_map, pool_context, resolve_processes


def square(x):
    return x * x


_STATE = {}


def _init(value):
    _STATE["value"] = value


def _use_state(x):
    return x + _STATE["value"]


def _draw(gen):
    return float(gen.random())


class TestResolveProcesses:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROCS", raising=False)
        assert resolve_processes() == 1

    def test_explicit_argument(self):
        assert resolve_processes(4) == 4

    def test_env_number(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCS", "3")
        assert resolve_processes() == 3

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCS", "auto")
        assert resolve_processes() == max(os.cpu_count() or 1, 1)

    def test_zero_means_serial(self):
        assert resolve_processes(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_processes(-2)

    def test_malformed_env_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCS", "four")
        with pytest.raises(ValueError, match="REPRO_PROCS.*'four'.*auto"):
            resolve_processes()


class TestPoolContext:
    def test_prefers_fork_when_available(self):
        if "fork" in multiprocessing.get_all_start_methods():
            assert pool_context().get_start_method() == "fork"

    def test_falls_back_without_fork(self, monkeypatch):
        """Without fork the platform default context is used as-is."""
        sentinel = object()
        calls = []

        def fake_get_context(method=None):
            calls.append(method)
            return sentinel

        monkeypatch.setattr(
            pool.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(pool.multiprocessing, "get_context", fake_get_context)
        assert pool_context() is sentinel
        assert calls == [None]  # asked for the default, never for "fork"


class TestParallelMap:
    def test_serial_order_preserved(self):
        assert parallel_map(square, [3, 1, 2], processes=1) == [9, 1, 4]

    def test_pool_order_preserved(self):
        assert parallel_map(square, list(range(20)), processes=2) == [
            x * x for x in range(20)
        ]

    def test_serial_equals_parallel(self):
        items = list(range(30))
        assert parallel_map(square, items, processes=1) == parallel_map(
            square, items, processes=3
        )

    def test_initializer_runs_serially(self):
        out = parallel_map(_use_state, [1, 2], processes=1, initializer=_init, initargs=(10,))
        assert out == [11, 12]

    def test_initializer_runs_in_workers(self):
        out = parallel_map(_use_state, [1, 2, 3, 4], processes=2, initializer=_init, initargs=(100,))
        assert out == [101, 102, 103, 104]

    def test_single_item_stays_serial(self):
        assert parallel_map(square, [5], processes=8) == [25]

    def test_rng_tasks_deterministic_across_modes(self):
        """Pre-spawned generators make serial and parallel runs identical."""
        from repro.util.seeding import spawn_generators

        gens_a = spawn_generators(7, 10)
        gens_b = spawn_generators(7, 10)
        assert parallel_map(_draw, gens_a, processes=1) == parallel_map(
            _draw, gens_b, processes=2
        )
