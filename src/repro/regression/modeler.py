"""Facade of the regression modeler with the common modeler interface."""

from __future__ import annotations

from repro.modeling.pipeline import ModelResult, PipelineModeler, Provenance
from repro.regression.multi_parameter import MultiParameterModeler

__all__ = ["ModelResult", "Provenance", "RegressionModeler"]


class RegressionModeler(PipelineModeler):
    """The paper's baseline: Extra-P's purely regression-based modeler.

    A :class:`~repro.modeling.pipeline.PipelineModeler` over the exhaustive
    :class:`~repro.modeling.candidates.FullSearchGenerator`, so it shares
    the :class:`~repro.modeling.pipeline.Modeler` interface with
    :class:`repro.dnn.DNNModeler` and :class:`repro.adaptive.AdaptiveModeler`.
    Regression is deterministic: the ``rng`` arguments are accepted and
    unused. ``engine`` selects the fitting engine (``'fast'``/``'reference'``).
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
        super().__init__(
            FullSearchGenerator(self.multi),
            self.method_name,
            aggregation=self.multi.aggregation,
            engine=engine,
            prefilter=prefilter,
        )
