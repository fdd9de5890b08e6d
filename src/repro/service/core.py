"""The long-lived modeling service core: queue, batcher, warm engine.

:class:`ModelingService` turns the batch modeling pipeline into a
process-lifetime server:

* **Bounded intake with backpressure.** Requests enter a bounded queue;
  when it is full, :meth:`submit` raises :class:`ServiceBusy` carrying a
  ``retry_after`` hint instead of hanging or dropping work -- the HTTP
  front end maps it to ``429`` + ``Retry-After``.
* **Request-level batching.** A dispatcher thread drains the queue in
  batches (up to ``batch_max``, optionally lingering ``linger_s`` to let
  concurrent requests coalesce) and groups them into warm-pool engine
  tasks, where the kernels of all grouped requests are classified through
  single :meth:`~repro.dnn.modeler.DNNModeler.classify_batch` calls.
* **Warm workers.** Execution runs through a persistent
  :class:`~repro.parallel.engine.EngineSession`; worker processes (or the
  in-process serial path) keep their modeler cache -- loaded generic
  network, encoding/candidate caches, adapted weights -- across requests.
* **Bit-identical results.** A served request answers with exactly the
  models ``repro-model model`` produces for the same experiment, method,
  and seed: modeler reuse only warms caches whose hits consume no caller
  randomness, and batched classification only precomputes what the
  per-kernel path would compute anyway.
* **Auditability.** With a ``run_dir``, every response is journaled into a
  per-tenant sub-manifest (``tenants/<tenant>/journal.jsonl``) under one
  service run directory, and a telemetry trace artifact is written on
  shutdown.
* **Live observability.** The service holds an open telemetry session;
  per-request spans and counters land in it as they happen, and
  :meth:`metrics_text`/:meth:`healthz` expose them to the ``/metrics`` and
  ``/healthz`` endpoints while the service runs.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

from repro.dnn.modeler import prime_candidate_cache
from repro.modeling.registry import create_modeler
from repro.obs import recording
from repro.parallel.engine import EngineConfig, EngineSession, TaskError, TaskFailure
from repro.run.lifecycle import merge_stage_seconds, record_trace, unpack, worker_task
from repro.run.manifest import MANIFEST_NAME, RunManifest, config_fingerprint
from repro.service.schema import (
    ModelingRequest,
    build_response,
    error_response,
    parse_request,
)


class ServiceBusy(RuntimeError):
    """The request queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceClosed(RuntimeError):
    """The service is draining or closed and accepts no new requests."""


@dataclass(frozen=True)
class ServiceConfig:
    """Operating policy of one :class:`ModelingService`."""

    #: Worker processes for the engine session (``None``: ``REPRO_PROCS``).
    processes: "int | None" = None
    #: Bound of the intake queue; submissions beyond it are rejected.
    queue_limit: int = 64
    #: Most requests coalesced into one dispatcher batch.
    batch_max: int = 8
    #: Extra seconds the batcher waits for concurrent requests to coalesce
    #: after the first one arrives (0: take only what is already queued).
    linger_s: float = 0.0
    #: Default seconds a blocking ``request`` waits for its response.
    default_timeout_s: "float | None" = 120.0
    #: ``Retry-After`` hint handed to rejected submissions.
    retry_after_s: float = 1.0
    #: Service run directory for per-tenant journals + the trace artifact.
    run_dir: "str | None" = None
    #: Seconds ``close(drain=True)`` waits for queued work to finish.
    drain_timeout_s: float = 60.0
    #: Record a live telemetry session (spans, counters, trace artifact).
    telemetry: bool = True

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if self.batch_max < 1:
            raise ValueError("batch_max must be positive")
        if self.linger_s < 0:
            raise ValueError("linger_s must be non-negative")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")


class PendingRequest:
    """Handle on one submitted request; resolves to the response dict."""

    def __init__(self, request: ModelingRequest):
        self.request = request
        self._event = threading.Event()
        self._response: "dict | None" = None

    def done(self) -> bool:
        return self._event.is_set()

    def set_response(self, response: dict) -> None:
        self._response = response
        self._event.set()

    def wait(self, timeout: "float | None" = None) -> dict:
        """Block until the response arrives; raises ``TimeoutError`` if not."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id!r} not answered within {timeout:g}s"
            )
        assert self._response is not None
        return self._response


# ----------------------------------------------------------------- worker side
#: Per-process modeler cache: spec string -> built modeler. Living at module
#: level makes it worker-process state, exactly like the sweep's
#: ``_WORKER_STATE`` -- the warmth that makes a long-lived service faster
#: than one-shot CLI invocations.
_SERVICE_STATE: dict = {}


def _service_modeler(spec: str):
    cache = _SERVICE_STATE.setdefault("modelers", {})
    modeler = cache.get(spec)
    if modeler is None:
        modeler = create_modeler(spec)
        cache[spec] = modeler
    return modeler


def _serve_group(group: "list[ModelingRequest]"):
    """Model one coalesced group of requests -- one engine task.

    Returns the worker envelope ``(responses, stage_seconds, telemetry |
    None)`` with one response dict per request, in group order. The
    group's kernels are classified through single ``classify_batch``
    calls first. A request whose modeling fails degrades to an error
    response (HTTP 422 shape) instead of failing the whole group.
    """
    responses: list[dict] = []
    with worker_task("service.group", requests=len(group)) as task:
        with task.stage("prepare", "service.prepare"):
            modelers = [_service_modeler(request.method) for request in group]
        with task.stage("classify", "service.classify"):
            prime_candidate_cache(
                (modeler, request.experiment.kernels, request.experiment.n_params)
                for request, modeler in zip(group, modelers)
            )
        with task.stage("fit", "service.fit"):
            for request, modeler in zip(group, modelers):
                with task.tel.tracer.span(
                    "service.request",
                    request=request.request_id,
                    tenant=request.tenant,
                    kernels=len(request.experiment.kernels),
                ):
                    try:
                        started = time.perf_counter()
                        results = modeler.model_experiment(
                            request.experiment, rng=request.seed
                        )
                        responses.append(
                            build_response(
                                request, results, time.perf_counter() - started
                            )
                        )
                    # repro-lint: disable-next-line=EXC001 -- not swallowed:
                    # the failure becomes this request's error response
                    # (422) so one degenerate request cannot take down the
                    # others coalesced into the same group.
                    except Exception as exc:
                        task.tel.metrics.counter("service.request_errors").inc()
                        responses.append(
                            error_response(
                                request.request_id,
                                f"{type(exc).__name__}: {exc}",
                                422,
                            )
                        )
    return task.envelope(responses)


# ----------------------------------------------------------------- driver side
class ModelingService:
    """Queue + dispatcher + warm engine session behind the service front end.

    Use as a context manager (or call :meth:`start`/:meth:`close`). The
    dispatcher thread owns all engine interaction; transport handler
    threads only :meth:`submit` and wait, so the service core is
    transport-agnostic -- the unix-socket and localhost-HTTP front ends in
    :mod:`repro.service.http` are thin adapters over it.
    """

    def __init__(self, config: "ServiceConfig | None" = None):
        self.config = config or ServiceConfig()
        self._session = EngineSession(EngineConfig(processes=self.config.processes))
        self._queue: "queue.Queue[PendingRequest]" = queue.Queue(
            maxsize=self.config.queue_limit
        )
        self._thread: "threading.Thread | None" = None
        # Accepting from construction: requests may queue up before start()
        # and are dispatched as one batch once the service runs -- the
        # "queued batch drains through the warm pool" path.
        self._accepting = True
        self._stopping = threading.Event()
        self._abort = False
        self._started_at: "float | None" = None
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stats = {"served": 0, "rejected": 0, "errors": 0, "batches": 0}
        self._stage_seconds: "dict[str, float]" = {}
        self._tel_cm = None
        self._tel = None
        self._manifest: "RunManifest | None" = None
        self._tenant_journals: "dict[str, RunManifest]" = {}
        self._tenant_seq: "dict[str, int]" = {}

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "ModelingService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Open the run journal, warm the engine, start the dispatcher."""
        if self._thread is not None:
            return
        config = self.config
        if config.run_dir is not None:
            from pathlib import Path

            self._manifest = RunManifest.open(
                config.run_dir,
                config_fingerprint("service", config),
                resume=(Path(config.run_dir) / MANIFEST_NAME).exists(),
                meta={"kind": "service"},
            )
        # The service holds its telemetry session open for its lifetime:
        # spans and counters from every request land in it live (feeding
        # /metrics), and the trace artifact is written once on shutdown.
        self._tel_cm = recording(force=True if config.telemetry else False)
        self._tel = self._tel_cm.__enter__()
        self._session.warm_up()
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        self._thread.start()

    def close(self, drain: bool = True) -> None:
        """Stop accepting and shut down.

        With ``drain`` (the default), everything already queued is served
        first (bounded by ``drain_timeout_s``); without it, queued requests
        are answered with a 503 error response. Either way nothing is left
        hanging -- requests still queued after the drain window also get a
        503 -- and the trace artifact is flushed and the engine session
        torn down.
        """
        self._accepting = False
        if self._thread is not None:
            if not drain:
                self._abort = True
            self._stopping.set()
            self._thread.join(timeout=self.config.drain_timeout_s)
            self._thread = None
        # Flush whatever is still queued (never started, drain timed out,
        # or an aborted shutdown): a 503 answer beats a caller waiting on a
        # response that can no longer come.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            pending.set_response(
                error_response(pending.request.request_id, "service shut down", 503)
            )
        if self._tel is not None:
            with self._stats_lock:
                stages = dict(self._stage_seconds)
            if self._started_at is not None:
                stages["total"] = time.monotonic() - self._started_at
            record_trace(self._tel, self._manifest, stages, "service")
        if self._tel_cm is not None:
            self._tel_cm.__exit__(None, None, None)
            self._tel_cm = None
            self._tel = None
        self._session.close()

    # ----------------------------------------------------------------- intake
    def _next_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"req-{self._seq:06d}"

    def submit(self, payload, request_id: "str | None" = None) -> PendingRequest:
        """Validate and enqueue one request; returns its pending handle.

        Raises :class:`~repro.service.schema.RequestError` on an invalid
        payload, :class:`ServiceClosed` when draining, and
        :class:`ServiceBusy` (with ``retry_after``) when the queue is full.
        """
        if not self._accepting:
            raise ServiceClosed("service is draining; not accepting new requests")
        request = parse_request(payload, request_id=request_id or self._next_id())
        pending = PendingRequest(request)
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            with self._stats_lock:
                self._stats["rejected"] += 1
                if self._tel is not None:
                    self._tel.metrics.counter("service.rejected").inc()
            raise ServiceBusy(
                f"request queue is full ({self.config.queue_limit} waiting); "
                f"retry after {self.config.retry_after_s:g}s",
                retry_after=self.config.retry_after_s,
            ) from None
        return pending

    def request(self, payload, timeout: "float | None" = None) -> dict:
        """Submit and block for the response (the one-call convenience)."""
        pending = self.submit(payload)
        if timeout is None:
            timeout = self.config.default_timeout_s
        return pending.wait(timeout)

    # ------------------------------------------------------------- dispatcher
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            if self._abort:
                for pending in batch:
                    pending.set_response(
                        error_response(
                            pending.request.request_id, "service shut down", 503
                        )
                    )
                continue
            self._process_batch(batch)

    def _next_batch(self) -> "list[PendingRequest] | None":
        """Block for the next batch; ``None`` once stopping and drained."""
        while True:
            try:
                first = self._queue.get(timeout=0.05)
                break
            except queue.Empty:
                if self._stopping.is_set():
                    return None
        batch = [first]
        deadline = time.monotonic() + self.config.linger_s
        while len(batch) < self.config.batch_max:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0 and not self._stopping.is_set():
                    batch.append(self._queue.get(timeout=remaining))
                else:
                    batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return batch

    def _split_groups(self, batch: "list[PendingRequest]") -> "list[list[PendingRequest]]":
        """Contiguously split a batch into one engine task per worker slot."""
        n_groups = max(1, min(len(batch), self._session.processes))
        size = -(-len(batch) // n_groups)  # ceil division
        return [batch[i : i + size] for i in range(0, len(batch), size)]

    def _process_batch(self, batch: "list[PendingRequest]") -> None:
        tel = self._tel
        groups = self._split_groups(batch)
        with self._stats_lock:
            self._stats["batches"] += 1
        with tel.tracer.span(
            "service.batch", requests=len(batch), groups=len(groups)
        ) as batch_span:
            try:
                raw = self._session.run(
                    _serve_group, [[p.request for p in group] for group in groups]
                )
            except (TaskError, RuntimeError) as exc:
                self._fail_batch(batch, f"{type(exc).__name__}: {exc}")
                return
            with self._stats_lock:
                slots = unpack(raw, tel, batch_span.span_id)
                for slot in slots:
                    if isinstance(slot, tuple):
                        merge_stage_seconds(self._stage_seconds, slot[1])
            for group, slot in zip(groups, slots):
                if slot is None or isinstance(slot, TaskFailure):
                    detail = slot.error if isinstance(slot, TaskFailure) else "no result"
                    self._fail_batch(group, f"engine task failed: {detail}")
                    continue
                for pending, response in zip(group, slot[0]):
                    self._resolve(pending, response)

    def _fail_batch(self, batch: "list[PendingRequest]", message: str) -> None:
        for pending in batch:
            self._resolve(
                pending, error_response(pending.request.request_id, message, 500)
            )

    def _resolve(self, pending: PendingRequest, response: dict) -> None:
        self._journal_response(pending.request, response)
        with self._stats_lock:
            if response.get("status", 200) == 200:
                self._stats["served"] += 1
                if self._tel is not None:
                    self._tel.metrics.counter("service.served").inc()
            else:
                self._stats["errors"] += 1
                if self._tel is not None:
                    self._tel.metrics.counter("service.errors").inc()
        pending.set_response(response)

    # -------------------------------------------------------------- journaling
    def _journal_response(self, request: ModelingRequest, response: dict) -> None:
        if self._manifest is None:
            return
        journal = self._tenant_journals.get(request.tenant)
        if journal is None:
            journal = self._manifest.sub_manifest(
                request.tenant, meta={"kind": "service-tenant"}
            )
            self._tenant_journals[request.tenant] = journal
            completed = journal.completed_tasks()
            self._tenant_seq[request.tenant] = (
                max(completed) + 1 if completed else 0
            )
        seq = self._tenant_seq[request.tenant]
        self._tenant_seq[request.tenant] = seq + 1
        journal.record_task(seq, response)

    # ------------------------------------------------------------ observability
    def healthz(self) -> dict:
        """Liveness snapshot for the ``/healthz`` endpoint."""
        with self._stats_lock:
            stats = dict(self._stats)
        uptime = (
            time.monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        return {
            "status": "ok" if self._accepting else "draining",
            "run_id": self._manifest.run_id if self._manifest is not None else None,
            "uptime_s": uptime,
            "queued": self._queue.qsize(),
            "queue_limit": self.config.queue_limit,
            "processes": self._session.processes,
            "pool_alive": self._session.pool_alive,
            **stats,
        }

    def metrics_text(self) -> str:
        """The live metrics snapshot in a Prometheus-style text exposition."""
        lines = []
        health = self.healthz()
        for key in ("served", "rejected", "errors", "batches", "queued", "uptime_s"):
            lines.append(f"repro_service_{key} {_format_value(health[key])}")
        if self._tel is not None and self._tel.enabled:
            with self._stats_lock:
                snapshot = self._tel.metrics.snapshot()
            for name, value in sorted(snapshot.get("counters", {}).items()):
                lines.append(f"{_metric_name(name)}_total {_format_value(value)}")
            for name, value in sorted(snapshot.get("gauges", {}).items()):
                lines.append(f"{_metric_name(name)} {_format_value(value)}")
            for name, data in sorted(snapshot.get("histograms", {}).items()):
                base = _metric_name(name)
                lines.append(f"{base}_sum {_format_value(data['sum'])}")
                lines.append(f"{base}_count {_format_value(data['count'])}")
        return "\n".join(lines) + "\n"


def _metric_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
