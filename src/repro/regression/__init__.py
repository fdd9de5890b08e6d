"""The Extra-P style regression modeler (paper Sec. III).

Hypotheses are instantiated from the PMNF with exponents from the set ``E``,
their coefficients are fitted with linear least squares, and the best
hypothesis is selected by leave-one-out cross-validation under the SMAPE
metric. Multi-parameter models are found by modeling each parameter
separately along its measurement line and then testing all additive /
multiplicative combinations of the single-parameter terms (Calotoiu et al.,
"Fast multi-parameter performance modeling", 2016 -- the algorithm the paper
builds on).
"""

from repro.regression.hypothesis import Hypothesis, fit_hypothesis, FittedModel
from repro.regression.selection import ScoredModel, evaluate_hypotheses, select_best
from repro.regression.single_parameter import SingleParameterModeler
from repro.regression.multi_parameter import MultiParameterModeler, combination_hypotheses
from repro.regression.modeler import RegressionModeler, ModelResult

__all__ = [
    "Hypothesis",
    "fit_hypothesis",
    "FittedModel",
    "ScoredModel",
    "evaluate_hypotheses",
    "select_best",
    "SingleParameterModeler",
    "MultiParameterModeler",
    "combination_hypotheses",
    "RegressionModeler",
    "ModelResult",
]
