"""The synthetic sweep driver behind Fig. 3.

For every noise level and every test function: draw a ground truth from the
PMNF, simulate a noisy measurement campaign on a random ``5^m`` grid, let
each modeler recover a model, and record the lead-exponent distance plus the
extrapolation errors at the four evaluation points ``P+``. The sweep is
embarrassingly parallel over functions and runs through the fault-tolerant
engine of :mod:`repro.parallel.engine` (set ``REPRO_PROCS=auto``): tasks
are grouped into batches of :attr:`SweepConfig.batch_size` functions so
that DNN-backed modelers classify a whole batch in one stacked forward
pass, worker failures are retried and reported with the failing task's
identity, and a chunk timeout degrades a stuck pool into marked failures
instead of a hung sweep. Serial, parallel, and batched runs are
bit-identical because every function carries its own pre-spawned RNG and
results are reassembled in task order.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.evaluation.accuracy import ACCURACY_BUCKETS, bucket_fractions, lead_exponent_distance
from repro.evaluation.predictive_power import prediction_smape, relative_prediction_errors
from repro.experiment.experiment import Kernel
from repro.modeling.batch import unwrap
from repro.modeling.registry import create_modelers
from repro.noise.registry import noise_axis, noise_for_level
from repro.dnn.modeler import prime_candidate_cache
from repro.parallel.engine import EngineConfig, EngineSession, Progress, TaskFailure
from repro.run.lifecycle import RunLifecycle, merge_stage_seconds, worker_task
from repro.synthesis.evaluation_points import evaluation_points
from repro.synthesis.functions import (
    random_multi_parameter_function,
    random_single_parameter_function,
)
from repro.synthesis.measurements import (
    cross_coordinates,
    grid_points,
    synthesize_measurements,
)
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator, clone_generator, spawn_generators

#: The noise levels of the paper's synthetic evaluation (Sec. V).
PAPER_NOISE_LEVELS: tuple[float, ...] = (0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00)


def default_eval_functions() -> int:
    """Functions per sweep cell; the paper uses 100 000, we default lower.

    Override with ``REPRO_EVAL_FUNCTIONS``. The reported shapes are stable
    from a few hundred functions on (the paper's 99 % confidence intervals
    are ±2 % at 100 000; ours are correspondingly wider and recorded in
    EXPERIMENTS.md).
    """
    return int(os.environ.get("REPRO_EVAL_FUNCTIONS", "200"))


@dataclass(frozen=True)
class SweepConfig:
    """One synthetic sweep: a parameter count crossed with noise levels."""

    n_params: int = 1
    noise_levels: tuple[float, ...] = PAPER_NOISE_LEVELS
    n_functions: int = field(default_factory=default_eval_functions)
    repetitions: int = 5
    points_per_parameter: int = 5
    n_eval_points: int = 4
    #: Measurement-point design: ``grid`` = full ``5^m`` cartesian product
    #: (the paper's Sec. V setup), ``cross`` = one line per parameter plus
    #: an interaction point (the sparse layout of the FASTEST/RELeARN
    #: campaigns and of Ritter et al. 2020).
    layout: str = "grid"
    #: Functions per engine task. DNN-backed modelers classify a whole
    #: batch through one stacked forward pass; 1 reproduces the historical
    #: one-task-per-function dispatch (results are identical either way).
    batch_size: int = 16
    #: Fixed measurement layout for a *repeated-task-shape* sweep: one
    #: value tuple per parameter, used by every synthesized function
    #: instead of per-function random sequences. With a shared layout the
    #: functions' adaptation keys differ only in their (bucketed) noise
    #: bands, so domain-adapting modelers cluster onto a handful of shared
    #: retrainings. ``None`` (the default) keeps the paper's randomized
    #: layouts.
    parameter_value_sets: "tuple[tuple[float, ...], ...] | None" = None
    #: Noise-model spec (see :mod:`repro.noise.registry`); each value in
    #: ``noise_levels`` binds to the model's sweep axis. The default
    #: ``"uniform"`` reproduces the paper's sweep (levels are uniform-noise
    #: levels); ``"tainted(level=0.05)"`` turns the axis into the
    #: contamination probability of a degradation sweep.
    noise: str = "uniform"

    def __post_init__(self) -> None:
        if self.n_params < 1:
            raise ValueError("n_params must be positive")
        if self.n_functions < 1:
            raise ValueError("n_functions must be positive")
        if self.points_per_parameter < 5:
            raise ValueError("Extra-P needs at least five points per parameter")
        if self.layout not in ("grid", "cross"):
            raise ValueError(f"unknown layout {self.layout!r} (grid/cross)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        noise_axis(self.noise)  # validates the spec and that it has an axis
        if self.parameter_value_sets is not None:
            if len(self.parameter_value_sets) != self.n_params:
                raise ValueError(
                    "parameter_value_sets needs one value tuple per parameter "
                    f"(got {len(self.parameter_value_sets)} for m={self.n_params})"
                )
            for values in self.parameter_value_sets:
                if len(values) < self.points_per_parameter:
                    raise ValueError(
                        "each fixed value set needs at least "
                        f"points_per_parameter={self.points_per_parameter} values"
                    )


@dataclass
class CellResult:
    """All per-function outcomes of one (noise level, modeler) cell."""

    noise: float
    modeler: str
    distances: np.ndarray  # (n,) lead-exponent distances; inf on failure
    errors: np.ndarray  # (n, n_eval_points) percentage errors; NaN on failure
    seconds: float  # summed modeling time
    failures: int
    #: Formatted selected model per function ('' on failure); lets the
    #: serial/parallel/batched equivalence test compare model *selections*
    #: directly instead of only derived metrics.
    functions: "list[str] | None" = None
    #: (n, n_eval_points) SMAPE of the selected models at the evaluation
    #: points; NaN on failure. The bounded error used by the degradation
    #: sweeps (a contaminated modeler can be wrong by orders of magnitude).
    smape: "np.ndarray | None" = None
    #: (n,) repetitions dropped by the robust pre-filter per function
    #: (all-zero when no pre-filter ran) -- the taint bookkeeping.
    dropped: "np.ndarray | None" = None

    def bucket_fractions(self, buckets: Sequence[float] = ACCURACY_BUCKETS) -> Mapping[float, float]:
        return bucket_fractions(self.distances, buckets)

    def median_errors(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.nanmedian(self.errors, axis=0)

    def median_smape(self) -> float:
        """Median SMAPE over functions and evaluation points (NaN-failure-aware)."""
        if self.smape is None:
            raise ValueError("this cell carries no SMAPE data")
        with np.errstate(all="ignore"):
            return float(np.nanmedian(self.smape))

    def dropped_total(self) -> int:
        """Total repetitions the pre-filter rejected across all functions."""
        if self.dropped is None:
            return 0
        return int(np.sum(self.dropped))

    def bucket_fraction_ci(
        self, bucket: float, confidence: float = 0.99, rng=0
    ) -> tuple[float, float]:
        """Bootstrap CI of one accuracy fraction (paper: ±2 pp at full scale)."""
        from repro.evaluation.statistics import fraction_ci

        finite = np.where(np.isfinite(self.distances), self.distances, np.inf)
        return fraction_ci(finite <= bucket + 1e-12, confidence=confidence, rng=rng)

    def median_error_ci(
        self, eval_point: int, confidence: float = 0.99, rng=0
    ) -> tuple[float, float]:
        """Bootstrap CI of the median error at evaluation point ``eval_point``."""
        from repro.evaluation.statistics import median_ci

        return median_ci(self.errors[:, eval_point], confidence=confidence, rng=rng)


@dataclass
class SweepResult:
    """Results of a full sweep, indexed by (noise level, modeler name)."""

    config: SweepConfig
    cells: dict[tuple[float, str], CellResult]
    #: Wall-clock seconds per pipeline stage (synthesize / classify / fit,
    #: summed over workers) plus the engine's end-to-end ``total``.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Tasks the engine marked failed (worker crash / chunk timeout), i.e.
    #: whole batches degraded to failure outcomes rather than hanging.
    engine_failures: int = 0
    #: Path of the telemetry trace artifact (``trace.jsonl``), set when the
    #: sweep ran with telemetry enabled and a run directory.
    trace_path: "str | None" = None
    #: True when this run covered only part of the task space (a ``shard``
    #: slice, or a work-stealing worker that exited while other workers
    #: still held claims). Partial results carry no cells -- the journal is
    #: the product; merge the shards (``repro-model merge-run``) or resume
    #: the completed run dir to render tables.
    partial: bool = False
    #: ``(index, count)`` when the run was a static shard slice.
    shard: "tuple[int, int] | None" = None
    #: Journal coverage at the end of this run (batches, not functions).
    completed_batches: int = 0
    total_batches: int = 0

    def cell(self, noise: float, modeler: str) -> CellResult:
        return self.cells[(noise, modeler)]

    def modeler_names(self) -> list[str]:
        return sorted({name for _, name in self.cells})

    def accuracy_series(self, modeler: str, bucket: float) -> list[float]:
        """Accuracy (fraction correct) per noise level -- one Fig. 3 line."""
        return [
            self.cell(noise, modeler).bucket_fractions([bucket])[bucket]
            for noise in self.config.noise_levels
        ]

    def power_series(self, modeler: str, eval_point: int) -> list[float]:
        """Median error at evaluation point ``P+_{eval_point+1}`` per noise level."""
        return [
            float(self.cell(noise, modeler).median_errors()[eval_point])
            for noise in self.config.noise_levels
        ]


# ------------------------------------------------------------------- worker
_WORKER_STATE: dict = {}

#: Per-modeler outcome of one function:
#: (distance, errors, seconds, model, smape, dropped repetitions).
TaskOutcome = "dict[str, tuple[float, np.ndarray, float, str, np.ndarray, int]]"


def _init_worker(config: SweepConfig, modelers: Mapping[str, object]) -> None:
    _WORKER_STATE["config"] = config
    _WORKER_STATE["modelers"] = modelers


def _synthesize_task(noise: float, gen: np.random.Generator, config: SweepConfig):
    """Draw one ground truth and simulate its noisy campaign."""
    m = config.n_params
    if m == 1:
        truth = random_single_parameter_function(gen)
    else:
        truth = random_multi_parameter_function(m, gen)
    if config.parameter_value_sets is not None:
        value_sets = [np.asarray(v, dtype=float) for v in config.parameter_value_sets]
    else:
        value_sets = [
            random_sequence(config.points_per_parameter, None, gen) for _ in range(m)
        ]
    if config.layout == "cross":
        points = cross_coordinates(value_sets)
    else:
        points = grid_points(value_sets)
    kernel = Kernel("synthetic")
    kernel.add_rows(
        points,
        synthesize_measurements(
            truth, points, noise_for_level(config.noise, noise), config.repetitions, gen
        ),
    )
    eval_pts = evaluation_points(value_sets, config.n_eval_points)
    return truth, kernel, eval_pts, gen


def _model_batch(prepared, config: SweepConfig, modelers) -> "list[TaskOutcome]":
    """Model a batch of synthesized functions, one modeler at a time.

    Closed-form modelers model the whole batch in one ``model_kernels``
    call, sharing one job memo: a ``(pipeline, kernel)`` job runs once per
    batch, however many modelers use it (the adaptive modeler's calm-kernel
    regression is the sibling regression modeler's). Predictor-only
    baselines (GPR's ``predict_at``) contribute prediction errors and SMAPE
    but no lead-exponent distance (recorded as NaN -- model accuracy is
    undefined for a black-box posterior, not failed).
    """
    kernels = [kernel for _, kernel, _, _ in prepared]
    rngs = [gen for _, _, _, gen in prepared]
    memo: dict = {}
    out: "list[TaskOutcome]" = [{} for _ in prepared]
    for name, modeler in modelers.items():
        if not hasattr(modeler, "model_kernels"):
            for task, (truth, kernel, eval_pts, _) in zip(out, prepared):
                task[name] = _predicted_outcome(modeler, truth, kernel, eval_pts, config)
            continue
        results = modeler.model_kernels(kernels, config.n_params, rngs, memo=memo)
        for task, (truth, _, eval_pts, _), result in zip(out, prepared, results):
            task[name] = _scored_outcome(result, truth, eval_pts, config)
    return out


def _sweep_modelers(modelers) -> "dict[str, object]":
    """Resolve ``modelers``; each must model batches (``model_kernels``) or
    predict (``predict_at``), else it is refused by label."""
    modelers = create_modelers(modelers)
    for label, modeler in modelers.items():
        if not (hasattr(modeler, "model_kernels") or hasattr(modeler, "predict_at")):
            raise TypeError(f"modeler {label!r} has neither model_kernels nor predict_at")
    return modelers


def _scored_outcome(result, truth, eval_pts, config: SweepConfig) -> tuple:
    """One closed-form modeler's outcome on one function."""
    try:
        model = unwrap(result)
        function = model.function
        return (
            lead_exponent_distance(function, truth),
            relative_prediction_errors(function, truth, eval_pts),
            model.seconds,
            function.format(),
            prediction_smape(function, truth, eval_pts),
            model.provenance.dropped_repetitions if model.provenance is not None else 0,
        )
    # repro-lint: disable-next-line=EXC001 -- not swallowed: the failure is
    # recorded as a maximally-wrong outcome (inf distance, NaN errors) so it
    # degrades the modeler's score instead of silently shrinking the sample.
    except Exception:
        return _failed(config)


def _predicted_outcome(modeler, truth, kernel, eval_pts, config: SweepConfig) -> tuple:
    """One predictor-only baseline's outcome on one function."""
    try:
        started = time.perf_counter()
        predicted = modeler.predict_at(kernel, eval_pts)
        elapsed = time.perf_counter() - started
        reference = np.atleast_1d(truth.evaluate(np.stack([p.as_array() for p in eval_pts])))
        errors = 100.0 * np.abs(predicted - reference) / np.abs(reference)
        smape = prediction_smape(predicted, truth, eval_pts)
        return (np.nan, errors, elapsed, "<predictor>", smape, 0)
    # repro-lint: disable-next-line=EXC001 -- not swallowed: recorded as a
    # maximally-wrong outcome, as for the closed-form modelers.
    except Exception:
        return _failed(config)


def _failed(config: SweepConfig) -> tuple:
    """One modeler's outcome for a failed attempt: maximally wrong (inf
    distance, NaN errors) rather than silently shrinking the sample."""
    nan = np.full(config.n_eval_points, np.nan)
    return (np.inf, nan, 0.0, "", nan.copy(), 0)


def _run_batch(batch: "list[tuple[float, np.random.Generator]]") -> tuple:
    """Model one batch of synthetic functions; returns the worker envelope
    ``(outcomes, stage_seconds, telemetry | None)`` with one outcome per
    function and this batch's per-stage wall-clock seconds.

    Every function carries its own pre-spawned RNG, and the modelers take
    the batch in turn, so each stream meets the modelers in the same order
    as in a per-function loop: batching perturbs no random stream. The
    batched classification pass only *precomputes* what the per-kernel path
    would compute anyway (the DNN's top-k candidates), priming the
    modeler's candidate cache; each modeler then models the batch stage by
    stage (:func:`_model_batch`).
    """
    config: SweepConfig = _WORKER_STATE["config"]
    modelers: Mapping[str, object] = _WORKER_STATE["modelers"]
    with worker_task("sweep.batch", functions=len(batch)) as task:
        with task.stage("synthesize", "batch.synthesize"):
            prepared = [_synthesize_task(noise, gen, config) for noise, gen in batch]
        with task.stage("classify", "batch.classify"):
            kernels = [kernel for _, kernel, _, _ in prepared]
            prime_candidate_cache(
                (modeler, kernels, config.n_params) for modeler in modelers.values()
            )
        with task.stage("fit", "batch.fit"):
            outcomes = _model_batch(prepared, config, modelers)
    return task.envelope(outcomes)


def _run_task(task: "tuple[float, np.random.Generator]") -> TaskOutcome:
    """One function end to end -- a single-task batch.

    The per-function unit of work, used by the benchmarks that time one
    modeling task (`benchmarks/test_bench_fig3_accuracy.py` and the
    ablations) independently of the batching engine.
    """
    return _run_batch([task])[0][0]


def _adaptation_keys(config: SweepConfig, tasks, resolution: float) -> list:
    """Every task's adaptation cluster key, for the parent-side warm-up.

    The keys come from re-synthesizing every task's kernel on a *clone* of
    its pre-spawned RNG, so the peek consumes nothing from the streams the
    workers will use.
    """
    from repro.dnn.domain_adaptation import AdaptationTask

    keys = []
    for noise, gen in tasks:
        _, kernel, _, _ = _synthesize_task(noise, clone_generator(gen), config)
        keys.append(AdaptationTask.from_kernel(kernel, config.n_params).key(resolution))
    return keys


def sweep_session(
    config: SweepConfig,
    modelers: "Mapping[str, object] | Sequence[str]",
    engine: "EngineConfig | None" = None,
    processes: "int | None" = None,
) -> EngineSession:
    """A warm-pool :class:`EngineSession` primed for :func:`run_sweep` calls.

    Passing the returned session to repeated ``run_sweep(...,
    session=...)`` calls (same ``config``/``modelers``) keeps the worker
    processes -- and their initializer-warmed modeler state -- alive across
    sweeps instead of re-forking per call. Close the session (or use it as
    a context manager) when done.
    """
    modelers = _sweep_modelers(modelers)
    engine_config = engine or EngineConfig()
    if processes is not None:
        engine_config = replace(engine_config, processes=processes)
    return EngineSession(
        engine_config, initializer=_init_worker, initargs=(config, modelers)
    )


def run_sweep(
    config: SweepConfig,
    modelers: "Mapping[str, object] | Sequence[str]",
    rng=None,
    processes: "int | None" = None,
    engine: "EngineConfig | None" = None,
    progress: "Callable[[Progress], None] | None" = None,
    run_dir: "str | None" = None,
    resume: bool = False,
    adaptation_cache=None,
    session: "EngineSession | None" = None,
    shard: "tuple[int, int] | None" = None,
    steal: bool = False,
) -> SweepResult:
    """Run the full sweep through the fault-tolerant engine.

    ``modelers`` maps display names to
    :class:`~repro.modeling.pipeline.Modeler` objects or predictor-only
    baselines (``predict_at``) -- or to registry spec strings
    (``"adaptive(use_domain_adaptation=False)"``), resolved through
    :func:`repro.modeling.registry.create_modelers`; a plain sequence of
    spec strings labels each modeler by its spec. The same noisy campaign
    is given to every modeler (paired comparison), matching the paper's
    protocol.

    ``engine`` sets the execution policy (workers, retries, chunk timeout);
    ``processes`` is a shorthand overriding just the worker count. Batches
    the engine marks failed (worker crash after retries with
    ``on_error='mark'``, or chunk timeout) degrade to all-failed outcomes
    for their functions -- counted in ``CellResult.failures`` and
    ``SweepResult.engine_failures`` -- instead of aborting or hanging the
    sweep. ``progress`` receives engine :class:`Progress` snapshots, where
    each task is one batch of ``config.batch_size`` functions.

    ``run_dir`` makes the sweep crash-safe: a run manifest is created there
    and every completed batch is journaled. After a crash (OOM kill,
    preemption, SIGKILL), calling again with ``resume=True`` and the same
    configuration/seed replays the journaled batches and computes only the
    missing ones -- the resulting :class:`SweepResult` is bit-identical to
    an uninterrupted run because every function carries a pre-spawned RNG
    keyed by its task index. Resuming with a different configuration or
    seed is refused (the manifest records a configuration fingerprint).

    ``adaptation_cache`` (a directory path or a ready
    :class:`~repro.dnn.adaptation_cache.AdaptationStore`) turns on adaptation
    sharing for DNN modelers running with domain adaptation: a parent
    pre-pass clusters the sweep's tasks by
    :class:`~repro.dnn.domain_adaptation.AdaptationKey`, adapts each cluster
    once (fused), and stores the weights where every worker loads them.
    Results are bit-identical with the cache on, off, warm, or cold --
    adaptation RNG streams are derived from the cluster keys, never from the
    task streams.

    ``session`` (from :func:`sweep_session`) reuses a warm worker pool
    across repeated sweeps; it must have been built for the same
    ``config``, and ``engine``/``processes`` are then taken from the
    session. The session stays open for the caller to reuse or close.

    ``shard=(i, n)`` runs only the strided batch slice ``index % n == i``
    into its own run dir (one dir per shard; merge them afterwards with
    :func:`repro.run.merge.merge_runs`). ``steal=True`` instead points N
    workers at *one shared* run dir where each claims unjournaled batch
    blocks (see :mod:`repro.run.claims`). Both require ``run_dir`` and
    return a *partial* :class:`SweepResult` (no cells) whenever any batch
    of the full sweep is still missing from this run's journal view. The
    shard slice is deliberately not part of the configuration fingerprint:
    every shard, the merged dir, and the unsharded run share one hash.
    """
    if not modelers:
        raise ValueError("at least one modeler is required")
    modelers = _sweep_modelers(modelers)
    if session is not None:
        if session.initargs and session.initargs[0] != config:
            raise ValueError(
                "session was built for a different SweepConfig; "
                "create it with sweep_session(config, modelers)"
            )
        if engine is not None or processes is not None:
            raise ValueError("session and engine/processes are mutually exclusive")
    run = RunLifecycle(
        "sweep",
        run_dir,
        config,
        rng,
        modelers,
        meta={"n_params": config.n_params},
        resume=resume,
        shard=shard,
        steal=steal,
        adaptation_cache=adaptation_cache,
    )
    gen = as_generator(rng)
    tasks: list[tuple[float, np.random.Generator]] = []
    for noise in config.noise_levels:
        for child in spawn_generators(gen, config.n_functions):
            tasks.append((noise, child))
    batches = [
        tasks[start : start + config.batch_size]
        for start in range(0, len(tasks), config.batch_size)
    ]
    # Without a caller's warm session, a one-shot one lives for this call.
    scope = (
        nullcontext(session)
        if session is not None
        else sweep_session(config, modelers, engine, processes)
    )
    with run.recording(
        "sweep.run",
        n_params=config.n_params,
        noise_levels=len(config.noise_levels),
        n_functions=config.n_functions,
        batch_size=config.batch_size,
    ):
        with run.stage("total", "sweep.total"):
            with scope as active:
                slots = run.execute(
                    active,
                    _run_batch,
                    batches,
                    "sweep.engine",
                    progress=progress,
                    cluster_keys=partial(_adaptation_keys, config, tasks),
                    batches=len(batches),
                )
            raw: list[TaskOutcome] = []
            engine_failures = 0
            # A sharded/stealing run sees None in every slot neither it nor
            # (via the journal) another worker has completed; the sweep is
            # then partial and carries no cells -- its journal is the product.
            missing_batches = 0
            for batch, slot in zip(batches, slots):
                if slot is None:
                    missing_batches += 1
                elif isinstance(slot, TaskFailure):
                    engine_failures += 1
                    # The engine marked the whole batch failed.
                    raw.extend({name: _failed(config) for name in modelers} for _ in batch)
                else:
                    outcomes, batch_stages = slot
                    raw.extend(outcomes)
                    merge_stage_seconds(run.stage_seconds, batch_stages)
    partial_run = missing_batches > 0
    result = SweepResult(
        config=config,
        cells={} if partial_run else _cells(config, modelers, raw),
        stage_seconds=run.stage_seconds,
        engine_failures=engine_failures,
        partial=partial_run,
        shard=shard if partial_run else None,
        completed_batches=len(batches) - missing_batches,
        total_batches=len(batches),
    )
    result.trace_path = run.finish()
    return result


def _cells(
    config: SweepConfig, modelers: Mapping[str, object], raw: "list[TaskOutcome]"
) -> "dict[tuple[float, str], CellResult]":
    """Aggregate per-function outcomes (in task order) into sweep cells."""
    cells: dict[tuple[float, str], CellResult] = {}
    for idx, noise in enumerate(config.noise_levels):
        block = raw[idx * config.n_functions : (idx + 1) * config.n_functions]
        for name in modelers:
            distances = np.asarray([r[name][0] for r in block])
            errors = np.stack([r[name][1] for r in block])
            seconds = float(sum(r[name][2] for r in block))
            # inf marks failed attempts; NaN marks predictor-only modelers
            # (no lead exponent to compare), which are not failures.
            failures = int(np.sum(np.isinf(distances)))
            cells[(noise, name)] = CellResult(
                noise=noise,
                modeler=name,
                distances=distances,
                errors=errors,
                seconds=seconds,
                failures=failures,
                functions=[r[name][3] for r in block],
                smape=np.stack([r[name][4] for r in block]),
                dropped=np.asarray([r[name][5] for r in block]),
            )
    return cells
