"""The shared modeling pipeline: aggregate → generate → fit → select.

The paper's method is one pipeline regardless of which modeler runs it:
aggregate the repeated measurements (median), generate candidate PMNF
hypotheses (full search or DNN top-k), fit coefficients by least squares,
and select the winner by leave-one-out CV with SMAPE. This module provides
that pipeline once, so :class:`repro.regression.modeler.RegressionModeler`,
:class:`repro.dnn.modeler.DNNModeler`, and the registry-built modelers all
share the same orchestration and differ only in their
:class:`~repro.modeling.candidates.CandidateGenerator`.

The fit/select stages run on one of two equivalent engines (see
:mod:`repro.modeling.engine`): the ``reference`` per-hypothesis loop or the
batched-SVD ``fast`` path of :mod:`repro.regression.fast_multi`. Every
result carries :class:`Provenance` -- which generator ran, which engine,
how many candidates were evaluated, cache hits, and per-stage seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.experiment.experiment import Experiment, Kernel
from repro.experiment.measurement import value_table
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


@runtime_checkable
class Modeler(Protocol):
    """The common modeler interface every registry entry satisfies."""

    method_name: str

    def model_kernel(
        self, kernel: Kernel, n_params: "int | None" = None, rng=None
    ) -> ModelResult: ...

    def model_experiment(self, experiment: Experiment, rng=None) -> dict[str, ModelResult]: ...


class ModelingPipeline:
    """Composable aggregate → generate → fit → select pipeline.

    ``generator`` supplies the candidate hypotheses (see
    :mod:`repro.modeling.candidates`); ``engine`` picks the fit/select
    implementation (``'fast'``, the default, or ``'reference'``). Both
    engines select the same models -- the fast path refits its winner
    through the reference solver, and the pinned equivalence tests hold
    the two bit-identical.

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
        if len(kernel) == 0:
            raise ValueError(f"kernel {kernel.name!r} has no measurements")
        if n_params is None:
            n_params = kernel.coordinates[0].dimensions
        telemetry = get_telemetry()
        with telemetry.tracer.span(
            "pipeline.model_kernel", kernel=kernel.name, engine=self.engine
        ) as span:
            # One perf_counter chain: each stage ends where the next begins.
            started = time.perf_counter()
            if self.prefilter is None:
                points, values = value_table(kernel.measurements, self.aggregation)
                dropped = 0
            else:
                points, values, report = apply_prefilter(
                    kernel.measurements, self.prefilter, self.aggregation
                )
                dropped = report.dropped_total
            aggregated = time.perf_counter()
            candidates = self.generator.generate(
                kernel, n_params, points, values, rng=rng, network=network
            )
            generated = time.perf_counter()
            if self.engine == "fast":
                scored = self._search.score(candidates.hypotheses, points, values)
                fitted = time.perf_counter()
                best = self._search.choose(scored, points, values)
            else:
                scored = evaluate_hypotheses(candidates.hypotheses, points, values)
                fitted = time.perf_counter()
                best = select_best(scored)
            selected = time.perf_counter()
            span.set(
                n_candidates=len(candidates.hypotheses),
                cache_hits=candidates.cache_hits,
                cv_smape=best.cv_smape,
            )
            if self.prefilter is not None:
                span.set(dropped_repetitions=dropped)
        stage_seconds = {
            "aggregate": aggregated - started,
            "generate": generated - aggregated,
            "fit": fitted - generated,
            "select": selected - fitted,
        }
        if telemetry.enabled:
            for stage, seconds in stage_seconds.items():
                telemetry.metrics.counter(f"pipeline.{stage}.seconds").inc(seconds)
            telemetry.metrics.counter("pipeline.kernels").inc()
            telemetry.metrics.counter("pipeline.candidates").inc(
                len(candidates.hypotheses)
            )
            telemetry.metrics.counter("pipeline.cache_hits").inc(candidates.cache_hits)
            if self.prefilter is not None:
                # inc(0) still materializes the counter, so clean runs show
                # an explicit zero next to the tainted runs' positive count.
                telemetry.metrics.counter("pipeline.prefilter.dropped").inc(dropped)
        provenance = Provenance(
            generator=candidates.generator,
            engine=self.engine,
            n_candidates=len(candidates.hypotheses),
            cache_hits=candidates.cache_hits,
            stage_seconds=stage_seconds,
            prefilter=repr(self.prefilter) if self.prefilter is not None else "",
            dropped_repetitions=dropped,
        )
        return ModelResult(
            function=best.function,
            cv_smape=best.cv_smape,
            method=method or candidates.generator,
            seconds=selected - started,
            kernel=kernel.name,
            provenance=provenance,
        )


class PipelineModeler:
    """A complete modeler from just a candidate generator.

    Thin adapter giving a :class:`ModelingPipeline` the common modeler
    interface (``model_kernel`` / ``model_experiment``); used by registry
    entries that need no extra plumbing beyond candidate generation (e.g.
    the ``fused`` candidate-level noise switcher).
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

    def model_kernel(
        self, kernel: Kernel, n_params: "int | None" = None, rng=None, network=None
    ) -> ModelResult:
        return self.pipeline.model_kernel(
            kernel, n_params, rng=rng, network=network, method=self.method_name
        )

    def model_experiment(self, experiment: Experiment, rng=None) -> dict[str, ModelResult]:
        gen = as_generator(rng)
        return {
            kern.name: self.model_kernel(kern, experiment.n_params, rng=gen)
            for kern in experiment.kernels
        }
