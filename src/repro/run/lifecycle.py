"""One run lifecycle for the sweep, case-study and service drivers.

The drivers keep only task synthesis and result aggregation; the steps
around them live here once. :class:`RunLifecycle` checks the
resume/shard/steal arguments, opens the journal, attaches the
domain-adaptation store and warms it before dispatch, and owns the driver
telemetry session, the engine span and the trace artifact
(:func:`record_trace`).

A stage is a span (:class:`StageScope`): its one ``perf_counter`` pair is
both the scope's ``stage_seconds`` and the span record's ``duration_s``.

Every engine task body runs inside :func:`worker_task` and returns one
fixed envelope, ``(result, stage_seconds, telemetry_payload | None)``,
whether telemetry is on or off -- so a journal recorded either way
replays either way. :func:`validate_envelope` checks it on journal replay
and on merge; :func:`unpack` decodes it on receipt.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Mapping

from repro.obs import NULL_TELEMETRY, recording, worker_recording
from repro.obs.sink import TRACE_FILENAME, build_trace_records, write_trace
from repro.obs.trace import TIMING_TRACER
from repro.parallel.engine import EngineSession, Progress, TaskFailure
from repro.run.claims import ClaimStore
from repro.run.manifest import RunManifest, config_fingerprint, rng_fingerprint
from repro.util.timing import validate_stage_seconds

__all__ = [
    "RunLifecycle",
    "StageScope",
    "merge_stage_seconds",
    "record_trace",
    "unpack",
    "validate_envelope",
    "worker_task",
]


# ----------------------------------------------------------------- envelope
def validate_envelope(index: int, payload) -> None:
    """Check one worker envelope; the journals' ``payload_validator``.

    The journal checksum catches torn pickles; this catches a valid pickle
    carrying garbage -- the wrong shape, or negative, NaN or non-numeric
    stage seconds -- before it poisons a resumed run's accounting. Raises
    :class:`ValueError`; the manifest re-raises it naming task ``index``.
    """
    if not (isinstance(payload, tuple) and len(payload) == 3):
        shape = (
            f"a {len(payload)}-tuple" if isinstance(payload, tuple) else type(payload).__name__
        )
        raise ValueError(f"expected a (result, stage_seconds, telemetry) envelope, got {shape}")
    _, stage_seconds, telemetry = payload
    if not isinstance(stage_seconds, dict):
        raise ValueError(f"stage_seconds must be a dict, got {type(stage_seconds).__name__}")
    validate_stage_seconds(stage_seconds)
    if telemetry is not None and not isinstance(telemetry, dict):
        raise ValueError(f"telemetry must be a dict or None, got {type(telemetry).__name__}")


def merge_stage_seconds(into: "dict[str, float]", seconds: "Mapping[str, float]") -> None:
    """Add a worker's per-stage seconds into ``into``. They crossed a
    process or journal boundary, so a corrupt value raises
    :class:`ValueError` naming the stage, before anything is applied."""
    validate_stage_seconds(seconds)
    for stage, value in seconds.items():
        into[stage] = into.get(stage, 0.0) + value


class StageScope:
    """The owner of one scope's ``stage_seconds``: a worker task or a run.

    Totals belong to the scope, not to the telemetry session: nested runs
    share one session (``recording()`` reuses an enclosing one), and each
    must still report only its own stages.
    """

    def __init__(self, tel) -> None:
        self.tel = tel
        self.stage_seconds: "dict[str, float]" = {}

    @contextmanager
    def stage(self, name: str, span: str) -> Iterator[None]:
        """Time the body once, as stage ``name`` and span ``span``.

        The duration is added to ``stage_seconds`` even when the body
        raises; with telemetry recording it is also the span record's
        ``duration_s`` (tagged ``stage=name``).
        """
        tracer = self.tel.tracer if self.tel.enabled else TIMING_TRACER
        timed = tracer.span(span, stage=name)
        try:
            with timed:
                yield
        finally:
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + timed.duration_s


class WorkerTask(StageScope):
    """The worker side of one engine task: its stages and telemetry."""

    def envelope(self, result) -> tuple:
        """``(result, stage_seconds, telemetry_payload | None)``."""
        payload = self.tel.export_payload() if self.tel.enabled else None
        return result, self.stage_seconds, payload


@contextmanager
def worker_task(span: str, **attrs) -> Iterator[WorkerTask]:
    """A detached worker telemetry session plus the task's root span.

    Build the envelope after the scope closes, so the root span is
    finished and exported with it.
    """
    with worker_recording() as tel:
        with tel.tracer.span(span, **attrs):
            yield WorkerTask(tel)


def unpack(raw: list, tel, parent_id: "str | None") -> list:
    """Decode engine result slots: each envelope becomes
    ``(result, stage_seconds)``; ``None`` (a slot no shard has completed
    yet) and :class:`TaskFailure` pass through. Worker telemetry is
    absorbed into ``tel``, its root spans re-parented onto ``parent_id``.
    """
    slots: list = []
    for index, entry in enumerate(raw):
        if entry is None or isinstance(entry, TaskFailure):
            slots.append(entry)
            continue
        validate_envelope(index, entry)
        result, stage_seconds, payload = entry
        if payload is not None:
            tel.absorb_payload(payload, parent_id)
        slots.append((result, stage_seconds))
    return slots


def record_trace(
    tel,
    journal: "RunManifest | None",
    stage_seconds: "dict[str, float]",
    kind: str,
    shard: "tuple[int, int] | None" = None,
) -> "str | None":
    """Write the trace artifact and register it in the run manifest
    (telemetry on and a run directory only); returns the trace path."""
    if not tel.enabled or journal is None:
        return None
    meta = {"kind": kind, "run_id": journal.run_id}
    if shard is not None:
        meta["shard"] = list(shard)
    records = build_trace_records(tel, stage_seconds=stage_seconds, meta=meta)
    trace_file = journal.directory / TRACE_FILENAME
    journal.record_artifact("trace", TRACE_FILENAME, write_trace(trace_file, records))
    return str(trace_file)


# ------------------------------------------------------------------- driver
class RunLifecycle(StageScope):
    """The driver side of one batch run (a sweep or a case study).

    Construction checks the run arguments, opens the journal when
    ``run_dir`` is set -- fingerprinting ``config`` (what determines the
    task stream), the seed ``rng`` and the modeler names -- and attaches
    the adaptation store to the ``modelers``. ``kind`` names the run in the
    manifest and trace meta and prefixes the ``adapt`` stage's span.
    """

    def __init__(
        self,
        kind: str,
        run_dir: "str | None",
        config,
        rng,
        modelers: "Mapping[str, object]",
        meta: "dict | None" = None,
        resume: bool = False,
        shard: "tuple[int, int] | None" = None,
        steal: bool = False,
        adaptation_cache=None,
    ):
        if shard is not None and steal:
            raise ValueError("shard and steal are mutually exclusive")
        if run_dir is None and (shard is not None or steal):
            raise ValueError("shard/steal require run_dir: the journal is the product")
        if run_dir is None and resume:
            raise ValueError("resume=True requires run_dir")
        self.kind = kind
        self.shard = shard
        self.journal: "RunManifest | None" = None
        self.claims: "ClaimStore | None" = None
        if run_dir is not None:
            fingerprint = config_fingerprint(
                config, rng_fingerprint(rng), tuple(sorted(modelers))
            )
            meta = {"kind": kind, **(meta or {})}
            if steal:
                self.journal = RunManifest.open_shared(
                    run_dir, fingerprint, meta=meta, payload_validator=validate_envelope
                )
                self.claims = ClaimStore(run_dir)
            else:
                self.journal = RunManifest.open(
                    run_dir,
                    fingerprint,
                    resume=resume,
                    meta=meta,
                    payload_validator=validate_envelope,
                    shard=shard,
                )
        self.store, self.adapting = None, []
        if adaptation_cache is not None:
            from repro.dnn.adaptation_cache import resolve_store

            self.store, self.adapting = resolve_store(
                adaptation_cache, list(modelers.values())
            )
        super().__init__(NULL_TELEMETRY)

    @contextmanager
    def recording(self, span: str, **attrs) -> Iterator[None]:
        """The driver telemetry session and the run's root span."""
        with recording() as tel:
            self.tel = tel
            with tel.tracer.span(span, **attrs):
                yield

    def execute(
        self,
        session: EngineSession,
        fn: Callable,
        items: list,
        span: str,
        progress: "Callable[[Progress], None] | None" = None,
        cluster_keys: "Callable[[float], list] | None" = None,
        **attrs,
    ) -> list:
        """Run ``fn`` over ``items`` inside an engine span; returns the
        :func:`unpack`-ed slots.

        With an adaptation store, ``cluster_keys(resolution)`` lists the
        run's adaptation keys. The engine's pre-pass (timed as the
        ``adapt`` stage, skipped when the journal covers every task) then
        adapts each cluster once per distinct generic network, before any
        worker forks, so workers load the stored weights.
        """
        pre_pass = None
        if self.store is not None and cluster_keys is not None:

            def pre_pass() -> None:
                with self.stage("adapt", f"{self.kind}.adapt"):
                    keys = cluster_keys(self.store.resolution)
                    seen: list = []
                    for dnn in self.adapting:
                        network = dnn.generic_network
                        if any(network is other for other in seen):
                            continue
                        seen.append(network)
                        self.store.warm_up(network, keys, manifest=self.journal)

        with self.tel.tracer.span(span, **attrs) as engine_span:
            raw = session.run(
                fn,
                items,
                progress=progress,
                journal=self.journal,
                pre_pass=pre_pass,
                shard=self.shard,
                claims=self.claims,
            )
        return unpack(raw, self.tel, engine_span.span_id)

    def finish(self) -> "str | None":
        """Write the trace; returns its path (telemetry and run dir only)."""
        return record_trace(self.tel, self.journal, self.stage_seconds, self.kind, self.shard)
