"""Facade of the regression modeler with the common modeler interface."""

from __future__ import annotations

from typing import Sequence

from repro.experiment.experiment import Experiment, Kernel
from repro.modeling.batch import Outcome, unwrap
from repro.modeling.pipeline import (
    ModelingPipeline,
    ModelResult,
    Provenance,
    results_by_kernel,
)
from repro.regression.multi_parameter import MultiParameterModeler

__all__ = ["ModelResult", "Provenance", "RegressionModeler"]


class RegressionModeler:
    """The paper's baseline: Extra-P's purely regression-based modeler.

    Implements the common modeler interface (``model_kernel`` /
    ``model_experiment``) shared with :class:`repro.dnn.DNNModeler` and
    :class:`repro.adaptive.AdaptiveModeler`, running the shared
    :class:`~repro.modeling.pipeline.ModelingPipeline` with the exhaustive
    :class:`~repro.modeling.candidates.FullSearchGenerator`. The ``rng``
    argument is accepted for interface compatibility; regression is
    deterministic. ``engine`` selects the fitting engine
    (``'fast'``/``'reference'``).
    """

    method_name = "regression"

    def __init__(
        self,
        multi: "MultiParameterModeler | None" = None,
        aggregation: str = "median",
        engine: str = "fast",
        prefilter=None,
    ):
        # Imported here, not at module level: candidates.py imports the
        # regression package, whose __init__ re-exports this module.
        from repro.modeling.candidates import FullSearchGenerator

        self.multi = multi or MultiParameterModeler(
            aggregation=aggregation, engine=engine
        )
        self.pipeline = ModelingPipeline(
            FullSearchGenerator(self.multi),
            aggregation=self.multi.aggregation,
            engine=engine,
            prefilter=prefilter,
        )

    def model_kernel(
        self, kernel: Kernel, n_params: "int | None" = None, rng=None
    ) -> ModelResult:
        """Model one kernel; ``n_params`` defaults to the coordinate arity."""
        return unwrap(self.model_kernels([kernel], n_params)[0])

    def model_kernels(
        self,
        kernels: "Sequence[Kernel]",
        n_params: "int | None" = None,
        rngs=None,
        memo: "dict | None" = None,
    ) -> "list[Outcome[ModelResult]]":
        """Model a batch of kernels stage by stage (see
        :meth:`ModelingPipeline.model_kernels`), one outcome per kernel."""
        return self.pipeline.model_kernels(
            kernels, n_params, method=self.method_name, memo=memo
        )

    def model_experiment(self, experiment: Experiment, rng=None) -> dict[str, ModelResult]:
        """Model every kernel of an experiment."""
        return results_by_kernel(
            experiment, self.model_kernels(experiment.kernels, experiment.n_params)
        )
