"""Unified observability: tracing, metrics, and trace artifacts.

One subsystem replaces the four ad-hoc reporting channels that grew around
the sweep (``StageTimer`` seconds, ``LRUCache.stats()``, engine
retry/progress counters, per-epoch training metrics):

* :mod:`repro.obs.trace` -- nested spans with wall + monotonic timestamps
  and export/re-parent propagation across pool workers;
* :mod:`repro.obs.metrics` -- counters, gauges, fixed-bucket histograms;
* :mod:`repro.obs.sink` -- the schema-versioned JSONL trace artifact,
  written through the atomic writers of :mod:`repro.util.artifacts` and
  registered in the run manifest;
* :mod:`repro.obs.report` -- the ``repro-model trace`` renderers.

Activation model
----------------

Telemetry defaults **off** and must be zero-overhead when off. A
:class:`Telemetry` session (tracer + metrics registry) only exists inside a
:func:`recording` scope; instrumented call sites fetch the active session
with :func:`get_telemetry`, which costs one list check and returns the
shared :data:`NULL_TELEMETRY` no-op when nothing is recording.

The toggle is the ``REPRO_TELEMETRY`` environment variable (the CLI's
``--telemetry`` flag sets it): entry points (``run_sweep``,
``run_case_study``) open a :func:`recording` scope, which is a no-op unless
the toggle is on. Because the toggle travels through the environment,
forked pool workers inherit it without plumbing; each worker batch records
into its own short-lived session (:func:`worker_recording`) and ships the
exported payload back with its results, where the driver absorbs it.

Telemetry never touches an RNG and never alters control flow, so modeling
outputs are bit-identical with telemetry on or off -- the integration tests
pin this.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry
from repro.obs.trace import NullTracer, Tracer

__all__ = [
    "ENV_VAR",
    "Telemetry",
    "NULL_TELEMETRY",
    "telemetry_env_enabled",
    "get_telemetry",
    "recording",
    "worker_recording",
]

ENV_VAR = "REPRO_TELEMETRY"
_TRUTHY = frozenset(("1", "true", "on", "yes"))


class Telemetry:
    """One recording session: a tracer plus a metrics registry."""

    __slots__ = ("tracer", "metrics")
    enabled = True

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    def export_payload(self) -> dict:
        """Everything a worker ships back: spans plus a metrics snapshot."""
        return {"spans": self.tracer.export(), "metrics": self.metrics.snapshot()}

    def absorb_payload(self, payload: dict, parent_id: "str | None" = None) -> None:
        """Merge a worker's exported payload into this session.

        Worker root spans are re-parented onto ``parent_id`` (the span that
        dispatched the work), keeping the merged trace one connected tree.
        """
        self.tracer.absorb(payload.get("spans", []), parent_id)
        self.metrics.merge(payload.get("metrics", {}))


class _NullTelemetry:
    """The shared disabled session: every operation is a no-op."""

    __slots__ = ()
    enabled = False
    tracer = NullTracer()
    metrics = NullMetricsRegistry()

    def export_payload(self) -> dict:
        return {"spans": [], "metrics": {}}

    def absorb_payload(self, payload: dict, parent_id: "str | None" = None) -> None:
        return None


NULL_TELEMETRY = _NullTelemetry()

#: Stack of active sessions; get_telemetry() reads the top. A stack (rather
#: than a single slot) lets a worker batch open a detached session while a
#: driver session is active (the serial engine path runs both in-process).
_STACK: "list[Telemetry]" = []


def telemetry_env_enabled() -> bool:
    """Whether the ``REPRO_TELEMETRY`` toggle asks for telemetry."""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def get_telemetry() -> "Telemetry | _NullTelemetry":
    """The active session, or the shared no-op when nothing is recording.

    This is the call instrumented code makes on every hot-path entry; its
    disabled-mode cost is one truthiness check on a module-level list.
    """
    return _STACK[-1] if _STACK else NULL_TELEMETRY


@contextmanager
def recording(force: "bool | None" = None) -> "Iterator[Telemetry | _NullTelemetry]":
    """Scope for a driver-side entry point (sweep, case study).

    Reuses an enclosing session if one is active (nested entry points feed
    one trace); otherwise starts a fresh session when the environment
    toggle is on or ``force=True``, and yields :data:`NULL_TELEMETRY` when
    telemetry is off (``force=False`` disables regardless of environment).
    """
    if _STACK:
        yield _STACK[-1]
        return
    if force is False or (force is None and not telemetry_env_enabled()):
        yield NULL_TELEMETRY
        return
    session = Telemetry()
    _STACK.append(session)
    try:
        yield session
    finally:
        _STACK.remove(session)


@contextmanager
def worker_recording() -> "Iterator[Telemetry | _NullTelemetry]":
    """Scope for one worker-side unit of work (an engine task body).

    Always records into a *fresh, detached* session -- even when a driver
    session is active in the same process (serial engine path) -- so the
    exported payload has the same shape in serial and pool execution and
    worker spans always travel back through the task result, where the
    driver re-parents them. Yields :data:`NULL_TELEMETRY` when telemetry is
    off; the task envelope's telemetry slot is then ``None`` (see
    :mod:`repro.run.lifecycle`).
    """
    if not (_STACK or telemetry_env_enabled()):
        yield NULL_TELEMETRY
        return
    session = Telemetry()
    _STACK.append(session)
    try:
        yield session
    finally:
        _STACK.remove(session)
