"""Case-study driver reproducing Figs. 4-6 for any simulated application."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.casestudies.base import SimulatedApplication
from repro.dnn.domain_adaptation import AdaptationTask
from repro.modeling.registry import create_modelers
from repro.noise.estimation import NoiseSummary, summarize_noise
from repro.parallel.engine import EngineConfig, EngineSession, Progress, TaskFailure
from repro.regression.modeler import ModelResult
from repro.run.lifecycle import RunLifecycle, worker_task
from repro.util.seeding import as_generator, spawn_generators


@dataclass(frozen=True)
class KernelOutcome:
    """Per-kernel, per-modeler prediction at the evaluation point."""

    kernel: str
    modeler: str
    result: ModelResult
    prediction: float
    reference: float  # measured median at the evaluation point
    relevant: bool  # runtime share > 1 %

    @property
    def relative_error(self) -> float:
        """Percentage error of the extrapolated prediction."""
        return 100.0 * abs(self.prediction - self.reference) / abs(self.reference)


@dataclass
class CaseStudyResult:
    """Everything Figs. 4-6 need for one application."""

    application: str
    noise: NoiseSummary  # Fig. 5 panel
    outcomes: list[KernelOutcome]
    total_seconds: dict[str, float]  # Fig. 6 bars (includes retraining)
    #: Wall-clock seconds per driver stage (campaign simulation, noise
    #: summary, modeling across all modelers).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Path of the telemetry trace artifact (``trace.jsonl``), set when the
    #: study ran with telemetry enabled and a run directory.
    trace_path: "str | None" = None
    #: True when this run covered only a ``shard`` slice of the modeler
    #: tasks; outcomes/timings then cover the journaled subset only --
    #: merge the shard dirs (``repro-model merge-run``) and resume the
    #: merged dir for the full study.
    partial: bool = False
    #: ``(index, count)`` when the run was a static shard slice.
    shard: "tuple[int, int] | None" = None

    def median_error(self, modeler: str) -> float:
        """Fig. 4 bar: median relative error over performance-relevant kernels."""
        errors = [
            o.relative_error for o in self.outcomes if o.modeler == modeler and o.relevant
        ]
        if not errors:
            raise ValueError(f"no relevant outcomes for modeler {modeler!r}")
        return float(np.median(errors))

    def modeler_names(self) -> list[str]:
        return sorted(self.total_seconds)

    def slowdown(self, modeler: str, baseline: str = "regression") -> float:
        """Fig. 6 annotation: how many times slower than the baseline."""
        base = self.total_seconds[baseline]
        return self.total_seconds[modeler] / base if base > 0 else float("inf")


# ------------------------------------------------------------------- worker
_DRIVER_STATE: dict = {}


def _init_driver_worker(modeling, modelers: Mapping[str, object]) -> None:
    _DRIVER_STATE["modeling"] = modeling
    _DRIVER_STATE["modelers"] = modelers


def _model_one_modeler(task):
    """Run one modeler over the whole modeling experiment (one engine task).

    Modelers with an adaptation cache are reset first so repeated driver
    runs stay comparable -- every run pays the same adaptation cost.
    Returns the worker envelope ``(results, {"model": seconds},
    telemetry | None)``.
    """
    name, m_rng = task
    modeling = _DRIVER_STATE["modeling"]
    modeler = _DRIVER_STATE["modelers"][name]
    dnn = getattr(modeler, "dnn", modeler)
    if hasattr(dnn, "reset_caches"):
        dnn.reset_caches()
    elif hasattr(dnn, "_adapted"):
        dnn._adapted = {}
    with worker_task("casestudy.modeler", modeler=name) as work:
        with work.stages.time("model"):
            results = modeler.model_experiment(modeling, rng=m_rng)
    return work.envelope(results)


def run_case_study(
    application: SimulatedApplication,
    modelers: "Mapping[str, object] | Sequence[str]",
    rng=None,
    processes: "int | None" = None,
    engine: "EngineConfig | None" = None,
    progress: "Callable[[Progress], None] | None" = None,
    run_dir: "str | None" = None,
    resume: bool = False,
    adaptation_cache=None,
    shard: "tuple[int, int] | None" = None,
) -> CaseStudyResult:
    """Simulate the campaign and evaluate every modeler on it.

    ``modelers`` maps display names to modeler objects or to registry spec
    strings (resolved through
    :func:`repro.modeling.registry.create_modelers`); a plain sequence of
    spec strings labels each modeler by its spec.

    All modelers see the identical noisy campaign. Predictions are compared
    against the *measured* (median) value at the evaluation point, as in the
    paper -- the reference itself carries measurement noise. Timing wraps
    the whole ``model_experiment`` call, so the adaptive modeler's
    domain-adaptation retraining is included (that is the overhead Fig. 6
    reports).

    Modelers run as independent engine tasks: each receives its own
    pre-spawned RNG, so serial and process-parallel executions (``processes``
    / ``REPRO_PROCS``) produce identical models. The default stays serial;
    DNN classification inside ``model_experiment`` is batched over all
    kernels either way.

    ``run_dir`` journals each modeler's finished results (domain-adaptation
    retraining is the expensive part here); after a crash, ``resume=True``
    with the same application/seed/modelers replays journaled modelers and
    re-runs only the missing ones, bit-identically. The campaign simulation
    is recomputed on resume -- it is deterministic given the seed and cheap
    next to modeling.

    ``adaptation_cache`` (a directory path or a ready
    :class:`~repro.dnn.adaptation_cache.AdaptationStore`) shares
    domain-adaptation retraining across the adaptation-enabled DNN
    modelers: the parent adapts the modeling experiment's task cluster
    once, before dispatch, and every modeler task loads the stored weights
    instead of re-adapting. Results are bit-identical with the cache on,
    off, warm, or cold -- adaptation RNG streams are derived from the
    cluster key, never from the modeler streams.

    ``shard=(i, n)`` runs only the modeler tasks with ``index % n == i``
    into this run dir; the result is then *partial* (its outcomes cover
    the journaled modelers only). Merge the shard dirs with
    :func:`repro.run.merge.merge_runs` and resume the merged dir for the
    full study -- all shards and the merged dir share one configuration
    fingerprint because the shard slice lives in manifest meta, not in the
    hashed configuration.
    """
    modelers = create_modelers(modelers)
    run = RunLifecycle(
        "casestudy",
        run_dir,
        application.name,
        rng,
        modelers,
        meta={"application": application.name},
        resume=resume,
        shard=shard,
        adaptation_cache=adaptation_cache,
    )
    gen = as_generator(rng)
    campaign_rng, *modeler_rngs = spawn_generators(gen, len(modelers) + 1)
    with run.recording(
        "casestudy.run", application=application.name, modelers=len(modelers)
    ):
        with run.stages.time("campaign"), run.tel.tracer.span("casestudy.campaign"):
            campaign = application.run_campaign(campaign_rng)
            modeling = application.modeling_experiment(campaign)
        relevant = {k.name for k in application.relevant_kernels()}

        references = {
            kern.name: kern.measurement_at(application.evaluation_point).median
            for kern in campaign.kernels
        }
        with run.stages.time("noise"), run.tel.tracer.span("casestudy.noise"):
            noise = summarize_noise(modeling)

        engine_config = engine or EngineConfig()
        if processes is not None:
            engine_config = replace(engine_config, processes=processes)
        # The adaptation warm-up is timed as the ``adapt`` stage, a subset
        # of ``modeling``'s wall time. Every modeler sees the same modeling
        # experiment: one cluster key. The worker state (that experiment)
        # is per-run, so the session is one-shot here.
        with run.stages.time("modeling"):
            with EngineSession(
                engine_config,
                initializer=_init_driver_worker,
                initargs=(modeling, modelers),
            ) as session:
                slots = run.execute(
                    session,
                    _model_one_modeler,
                    list(zip(modelers.keys(), modeler_rngs)),
                    "casestudy.engine",
                    progress=progress,
                    cluster_keys=lambda resolution: [
                        AdaptationTask.from_experiment(modeling).key(resolution)
                    ],
                    tasks=len(modelers),
                )

        outcomes: list[KernelOutcome] = []
        total_seconds: dict[str, float] = {}
        eval_array = application.evaluation_point.as_array()
        # Under on_error='mark' a crashed modeler degrades to a missing
        # entry (its name absent from the result) instead of aborting the
        # study. None slots belong to other shards (a sharded study is
        # partial by design); TaskFailure slots are crashed modelers.
        for name, slot in zip(modelers, slots):
            if slot is None or isinstance(slot, TaskFailure):
                continue
            results, modeler_stages = slot
            total_seconds[name] = modeler_stages["model"]
            for kernel_name, result in results.items():
                outcomes.append(
                    KernelOutcome(
                        kernel=kernel_name,
                        modeler=name,
                        result=result,
                        prediction=float(result.function.evaluate(eval_array)),
                        reference=references[kernel_name],
                        relevant=kernel_name in relevant,
                    )
                )
    result = CaseStudyResult(
        application=application.name,
        noise=noise,
        outcomes=outcomes,
        total_seconds=total_seconds,
        stage_seconds=run.stages.seconds,
        partial=any(slot is None for slot in slots),
        shard=shard,
    )
    result.trace_path = run.finish()
    return result
