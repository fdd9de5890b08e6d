"""Span-based tracing: nested wall-clock spans with cross-process merge.

A *span* is one named, timed region of work. Spans nest: the tracer keeps a
stack of active spans per process, so a span opened while another is active
records that span as its parent, and the finished trace reconstructs the
full call tree of a run (sweep → engine → batch → stage → kernel).

Each finished span records both a wall-clock timestamp (``start_unix``, for
correlating with external logs) and a monotonic timestamp plus duration
(``start_mono`` / ``duration_s``, immune to clock steps -- all interval
arithmetic uses the monotonic pair). Span ids are ``<pid>-<seq>`` strings
drawn from a plain counter: no RNG is touched, so tracing can never perturb
the deterministic modeling streams.

Cross-process propagation works by *export and re-parent*: a pool worker
records into its own short-lived tracer, serializes the finished spans into
its result payload (plain dicts, picklable and JSON-able), and the driver
re-parents the worker's root spans onto the span that dispatched the work
(:meth:`Tracer.absorb`). Worker spans keep their originating ``pid`` so a
per-worker breakdown stays possible after the merge.

:class:`NullTracer` is the zero-overhead disabled path: ``span()`` returns
one shared no-op context manager, so an instrumented call site costs an
attribute lookup and a no-op ``__enter__``/``__exit__`` pair.
"""

from __future__ import annotations

import itertools
import os
import time

__all__ = ["Tracer", "NullTracer", "NULL_SPAN"]


class Span:
    """One active span; context-manager handle returned by :meth:`Tracer.span`.

    ``set(**attrs)`` attaches attributes to the span while it is running
    (values must be JSON-serializable). The finished record is appended to
    the owning tracer when the span exits -- also on exception, in which
    case ``error`` carries the exception type name.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "start_unix",
        "start_mono",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.span_id = f"{tracer.pid:x}-{next(tracer._ids):x}"
        self.parent_id: "str | None" = None
        self.attrs = attrs
        self.start_unix = 0.0
        self.start_mono = 0.0

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self.start_unix = time.time()
        self.start_mono = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self.start_mono
        stack = self._tracer._stack
        # Exception-transparent bookkeeping: a torn stack (a span closed out
        # of order by a crashing body) must not mask the in-flight exception.
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            stack.remove(self)
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "start_mono": self.start_mono,
            "duration_s": duration,
            "pid": self._tracer.pid,
            "attrs": self.attrs,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self._tracer._finished.append(record)


class Tracer:
    """Collects finished spans for one process (or one worker batch)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self._finished: list[dict] = []

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, **attrs) -> Span:
        """Open a nested span; use as a context manager."""
        return Span(self, name, attrs)

    @property
    def current_span_id(self) -> "str | None":
        return self._stack[-1].span_id if self._stack else None

    def export(self) -> list[dict]:
        """The finished spans as plain dicts (picklable, JSON-able)."""
        return list(self._finished)

    def absorb(self, records: "list[dict]", parent_id: "str | None" = None) -> None:
        """Merge spans exported by another tracer (typically a pool worker).

        Root spans of the absorbed trace (``parent_id is None``) are
        re-parented onto ``parent_id`` -- the driver-side span that
        dispatched the work -- so the merged trace stays one connected tree.
        Non-root spans keep their worker-local parents.
        """
        for record in records:
            if record.get("parent_id") is None and parent_id is not None:
                record = {**record, "parent_id": parent_id}
            self._finished.append(record)

    def clear(self) -> None:
        self._finished.clear()


class _NullSpan:
    """Shared no-op span: the entire disabled-mode cost of an instrumented site."""

    __slots__ = ()
    name = ""
    span_id: "str | None" = None
    parent_id: "str | None" = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer used when telemetry is disabled."""

    __slots__ = ()
    enabled = False
    current_span_id: "str | None" = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def export(self) -> list[dict]:
        return []

    def absorb(self, records: "list[dict]", parent_id: "str | None" = None) -> None:
        return None

    def clear(self) -> None:
        return None
