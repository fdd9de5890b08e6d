"""The shared modeling pipeline: aggregate → generate → fit → select.

The paper's method is one pipeline regardless of which modeler runs it:
aggregate the repeated measurements (median), generate candidate PMNF
hypotheses (full search or DNN top-k), fit coefficients by least squares,
and select the winner by leave-one-out CV with SMAPE. This module provides
that pipeline once, so :class:`repro.regression.modeler.RegressionModeler`,
:class:`repro.dnn.modeler.DNNModeler`, and the registry-built modelers all
share the same orchestration and differ only in their
:class:`~repro.modeling.candidates.CandidateGenerator`. Every modeler
derives from :class:`Modeler`: it implements ``model_kernels``, and the
base writes ``model_kernel`` and ``model_experiment`` once over it.

The fit/select stages run on one of two engines (see
:mod:`repro.modeling.engine`): the ``reference`` per-hypothesis loop or the
stacked ``fast`` path of :mod:`repro.regression.fast_multi`. Both score
through one least-squares kernel, so they give bitwise-equal models. Every
result carries :class:`Provenance` -- which generator ran, which engine,
how many candidates were evaluated, cache hits, and per-stage seconds.

:meth:`ModelingPipeline.model_kernels` runs a batch of kernels (a sweep's
engine task, an experiment's kernels) stage by stage: the generate stage
selects every kernel's measurement lines in one stacked pass, and the fast
fit stage scores every kernel's hypotheses in another. Each kernel's
outcome is its result or the exception it raised; ``model_kernel`` is the
one-kernel batch.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

from repro.experiment.experiment import Experiment, Kernel
from repro.experiment.measurement import value_table
from repro.modeling.batch import GenerateJob, Outcome, attempt, failed, split_seconds, unwrap
from repro.modeling.engine import resolve_fit_engine
from repro.modeling.prefilter import apply_prefilter, create_prefilter
from repro.obs import get_telemetry
from repro.pmnf.function import PerformanceFunction
from repro.regression.fast_multi import FastMultiParameterSearch
from repro.regression.selection import evaluate_hypotheses, select_best
from repro.util.seeding import as_generator


@dataclass(frozen=True)
class Provenance:
    """How a :class:`ModelResult` came to be.

    ``stage_seconds`` attributes the modeling time to the pipeline stages
    (``aggregate`` / ``generate`` / ``fit`` / ``select``, plus ``adapt`` for
    domain-adapting modelers); ``cache_hits`` counts candidate-cache hits
    during generation (non-zero when a batched classification pass primed
    the DNN's cache). ``prefilter`` names the robust pre-filter that ran
    in the aggregate stage (empty when disabled) and
    ``dropped_repetitions`` totals the repetitions it rejected across the
    kernel's measurement points -- the taint bookkeeping of
    :mod:`repro.modeling.prefilter`.
    """

    generator: str = ""
    engine: str = ""
    n_candidates: int = 0
    cache_hits: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    prefilter: str = ""
    dropped_repetitions: int = 0


@dataclass(frozen=True)
class ModelResult:
    """Outcome of modeling one kernel -- common to all modelers."""

    function: PerformanceFunction
    cv_smape: float
    method: str
    seconds: float
    kernel: str = ""
    provenance: "Provenance | None" = None

    def format(self, parameter_names=None) -> str:
        return (
            f"[{self.method}] {self.kernel or 'kernel'}: "
            f"{self.function.format(parameter_names)} (CV-SMAPE {self.cv_smape:.2f}%)"
        )


class Modeler(ABC):
    """The base every modeler of the registry derives from (the
    predictor-only ``gpr`` baseline aside).

    A modeler implements :meth:`model_kernels`, which models a batch, one
    outcome per kernel (its result or the exception it raised).
    :meth:`model_kernel` and :meth:`model_experiment` are written here once
    over it; a modeler that classifies with a network overrides
    :meth:`experiment_network`, the experiment-level hook.
    """

    method_name: str = ""

    @abstractmethod
    def model_kernels(
        self,
        kernels: "Sequence[Kernel]",
        n_params: "int | None" = None,
        rngs: "Sequence | None" = None,
        network=None,
        memo: "dict | None" = None,
    ) -> "list[Outcome[ModelResult]]":
        """Model a batch of kernels, one outcome per kernel.

        ``network`` is shared by every kernel (``None``: each resolves its
        own); ``memo`` is as in :meth:`ModelingPipeline.model_kernels`.
        """

    def model_kernel(
        self, kernel: Kernel, n_params: "int | None" = None, rng=None, network=None
    ) -> ModelResult:
        """Model one kernel: the one-kernel batch, raising its failure."""
        return unwrap(self.model_kernels([kernel], n_params, [rng], network=network)[0])

    def model_experiment(self, experiment: Experiment, rng=None) -> dict[str, ModelResult]:
        """Model every kernel of an experiment in one batch, keyed by kernel
        name; raises the first kernel's failure.

        Every kernel draws from one generator seeded from ``rng``, and every
        kernel shares the network :meth:`experiment_network` resolves.
        """
        gen = as_generator(rng)
        kernels = experiment.kernels
        outcomes = self.model_kernels(
            kernels,
            experiment.n_params,
            [gen] * len(kernels),
            network=self.experiment_network(experiment),
        )
        return {kernel.name: unwrap(outcome) for kernel, outcome in zip(kernels, outcomes)}

    def experiment_network(self, experiment: Experiment):
        """The network every kernel of ``experiment`` shares; ``None`` (the
        default) leaves each kernel to resolve its own."""
        return None


def kernel_arity(kernel: Kernel, n_params: "int | None" = None) -> int:
    """``n_params``, or by default the kernel's coordinate arity; refuses a
    kernel without measurements, naming it."""
    if len(kernel) == 0:
        raise ValueError(f"kernel {kernel.name!r} has no measurements")
    return kernel.table.points.shape[1] if n_params is None else n_params


class ModelingPipeline:
    """Composable aggregate → generate → fit → select pipeline.

    ``generator`` supplies the candidate hypotheses (see
    :mod:`repro.modeling.candidates`); ``engine`` picks the fit/select
    implementation (``'fast'``, the default, or ``'reference'``). Both
    select bit-identical models, coefficients and scores on every kernel
    (see :mod:`repro.modeling.engine`).

    ``prefilter`` (a spec string like ``"mad(k=3)"``, a built
    :class:`~repro.modeling.prefilter.RobustAggregator`, or ``None``)
    replaces the plain aggregate stage with the robust pre-filter of
    :mod:`repro.modeling.prefilter`; with ``None`` the historical
    :func:`~repro.experiment.measurement.value_table` path runs unchanged.
    """

    def __init__(
        self,
        generator,
        aggregation: str = "median",
        engine: str = "fast",
        prefilter=None,
    ):
        self.generator = generator
        self.aggregation = aggregation
        self.engine = resolve_fit_engine(engine)
        self.prefilter = create_prefilter(prefilter)
        self._search = FastMultiParameterSearch()

    def model_kernel(
        self,
        kernel: Kernel,
        n_params: "int | None" = None,
        rng=None,
        network=None,
        method: "str | None" = None,
    ) -> ModelResult:
        """Run all four stages on one kernel and return the provenanced result."""
        return unwrap(
            self.model_kernels([kernel], n_params, rngs=[rng], networks=[network], method=method)[0]
        )

    def model_kernels(
        self,
        kernels: "Sequence[Kernel]",
        n_params: "int | None" = None,
        *,
        rngs: "Sequence | None" = None,
        networks: "Sequence | None" = None,
        method: "str | None" = None,
        memo: "dict | None" = None,
    ) -> "list[Outcome[ModelResult]]":
        """Run the four stages across a batch of kernels, one stage at a time.

        Returns one outcome per kernel: its :class:`ModelResult`, or the
        exception modeling it raised (the other kernels are unaffected).
        ``rngs`` and ``networks`` give each kernel's generator inputs.
        ``memo`` (a dict the caller holds for one batch) makes each
        ``(pipeline, kernel)`` job run once: a kernel this pipeline already
        modeled into the same memo returns that outcome, so two modelers
        sharing a pipeline share the work.

        Each stage's wall time is shared out across the kernels that
        entered it -- the fit stage by candidate count, the others evenly --
        and a kernel's ``seconds`` is the sum of its shares.
        """
        kernels = list(kernels)
        count = len(kernels)
        rngs = [None] * count if rngs is None else list(rngs)
        networks = [None] * count if networks is None else list(networks)
        if memo is None:
            outcomes = self._run_stages(kernels, n_params, rngs, networks, method)
        else:
            keys = [
                (id(self), id(kernel), n_params, id(network), method)
                for kernel, network in zip(kernels, networks)
            ]
            todo = [i for i, key in enumerate(keys) if memo.get(key, (None,))[0] is not kernels[i]]
            computed = self._run_stages(
                [kernels[i] for i in todo],
                n_params,
                [rngs[i] for i in todo],
                [networks[i] for i in todo],
                method,
            )
            for i, outcome in zip(todo, computed):
                memo[keys[i]] = (kernels[i], outcome)
            outcomes = [memo[key][1] for key in keys]
        telemetry = get_telemetry()
        if telemetry.enabled:
            self._count(telemetry.metrics, [o for o in outcomes if not failed(o)])
        return outcomes

    def _aggregate(self, kernel: Kernel, n_params: "int | None"):
        n_params = kernel_arity(kernel, n_params)
        if self.prefilter is None:
            points, values = value_table(kernel, self.aggregation)
            return n_params, points, values, 0
        points, values, report = apply_prefilter(kernel, self.prefilter, self.aggregation)
        return n_params, points, values, report.dropped_total

    def _run_stages(self, kernels, n_params, rngs, networks, method) -> list:
        if not kernels:
            return []
        outcomes: list = [None] * len(kernels)
        shares: "list[dict[str, float]]" = [{} for _ in kernels]
        live = list(range(len(kernels)))

        def stage(name: str, started: float, results: list, weights=None) -> dict:
            """Book the stage's wall time to the kernels that entered it and
            keep those that came through; the others' outcome is their error."""
            nonlocal live
            seconds = split_seconds(time.perf_counter() - started, weights or [1.0] * len(live))
            kept = {}
            for i, result, share in zip(live, results, seconds):
                shares[i][name] = share
                if failed(result):
                    outcomes[i] = result
                else:
                    kept[i] = result
            live = list(kept)
            return kept

        telemetry = get_telemetry()
        with telemetry.tracer.span(
            "pipeline.model_kernels", kernels=len(kernels), engine=self.engine
        ) as span:
            started = time.perf_counter()
            tables = stage(
                "aggregate", started, [attempt(self._aggregate, k, n_params) for k in kernels]
            )
            started = time.perf_counter()
            jobs = [
                GenerateJob(kernels[i], *tables[i][:3], rng=rngs[i], network=networks[i])
                for i in live
            ]
            candidates = stage("generate", started, self.generator.generate_many(jobs))
            started = time.perf_counter()
            fit_jobs = [(candidates[i].hypotheses, *tables[i][1:3]) for i in live]
            if self.engine == "fast":
                # A sole kernel has nothing to stack with: score() alone is
                # the same pass.
                search = self._search.prescored(fit_jobs) if len(fit_jobs) > 1 else self._search
                fit, choose = search.score, search.choose
            else:
                fit, choose = evaluate_hypotheses, select_best
            scored = stage(
                "fit",
                started,
                [attempt(fit, *job) for job in fit_jobs],
                [len(job[0]) for job in fit_jobs],
            )
            started = time.perf_counter()
            best = stage(
                "select",
                started,
                [attempt(choose, scored[i]) for i in live],
            )
            span.set(candidates=sum(len(candidates[i].hypotheses) for i in live))

        for i, chosen in best.items():
            stage_seconds = shares[i]
            if telemetry.enabled:
                for name, seconds in stage_seconds.items():
                    telemetry.metrics.counter(f"pipeline.{name}.seconds").inc(seconds)
            provenance = Provenance(
                generator=candidates[i].generator,
                engine=self.engine,
                n_candidates=len(candidates[i].hypotheses),
                cache_hits=candidates[i].cache_hits,
                stage_seconds=stage_seconds,
                prefilter=repr(self.prefilter) if self.prefilter is not None else "",
                dropped_repetitions=tables[i][3],
            )
            outcomes[i] = ModelResult(
                function=chosen.function,
                cv_smape=chosen.cv_smape,
                method=method or candidates[i].generator,
                seconds=sum(stage_seconds.values()),
                kernel=kernels[i].name,
                provenance=provenance,
            )
        return outcomes

    def _count(self, metrics, results: "list[ModelResult]") -> None:
        """Per-kernel counters, for every result served (a memoized job
        counts for each modeler it serves, as when each ran it)."""
        for result in results:
            provenance = result.provenance
            metrics.counter("pipeline.kernels").inc()
            metrics.counter("pipeline.candidates").inc(provenance.n_candidates)
            metrics.counter("pipeline.cache_hits").inc(provenance.cache_hits)
            if self.prefilter is not None:
                # inc(0) still materializes the counter, so clean runs show
                # an explicit zero next to the tainted runs' positive count.
                metrics.counter("pipeline.prefilter.dropped").inc(
                    provenance.dropped_repetitions
                )


class PipelineModeler(Modeler):
    """A complete modeler from just a candidate generator.

    Runs a :class:`ModelingPipeline` over ``generator`` as a
    :class:`Modeler`. :class:`repro.regression.modeler.RegressionModeler`
    is one (over the full search), and so is the registry's ``fused``
    candidate-level noise switcher.
    """

    def __init__(
        self,
        generator,
        method_name: str,
        aggregation: str = "median",
        engine: str = "fast",
        prefilter=None,
    ):
        self.method_name = method_name
        self.pipeline = ModelingPipeline(
            generator, aggregation=aggregation, engine=engine, prefilter=prefilter
        )

    def model_kernels(
        self,
        kernels: "Sequence[Kernel]",
        n_params: "int | None" = None,
        rngs: "Sequence | None" = None,
        network=None,
        memo: "dict | None" = None,
    ) -> "list[Outcome[ModelResult]]":
        kernels = list(kernels)
        return self.pipeline.model_kernels(
            kernels,
            n_params,
            rngs=rngs,
            networks=[network] * len(kernels),
            method=self.method_name,
            memo=memo,
        )
