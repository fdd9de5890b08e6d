"""Cross-validated hypothesis selection (shared by both modelers).

Extra-P picks the hypothesis with the smallest *cross-validation* SMAPE, not
the smallest in-sample error -- otherwise the fastest-growing term always
wins by overfitting the noise. We use leave-one-out CV, computed exactly in
closed form through the hat matrix of the least-squares fit (one SVD per
design instead of ``n`` refits) by the stacked kernel of
:mod:`repro.regression.fast_multi`, which keeps the 43-hypothesis search
fast enough for the 100 000-function synthetic sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.regression.hypothesis import FittedModel, Hypothesis, _checked_design


@dataclass(frozen=True)
class ScoredModel:
    """A fitted model together with its leave-one-out CV score."""

    fitted: FittedModel
    cv_smape: float

    @property
    def function(self):
        return self.fitted.function


def evaluate_hypotheses(
    hypotheses: Sequence[Hypothesis],
    points: np.ndarray,
    values: np.ndarray,
) -> list[ScoredModel]:
    """Fit and LOO-score every applicable hypothesis, one at a time.

    The reference engine: each hypothesis evaluates its own design matrix,
    scored by the stacked kernel on a stack of one, so a score and fit are
    bitwise what the fast engine's stacked pass gives the same design.
    Hypotheses with more coefficients than ``n - 1`` measurements are
    silently skipped (they cannot be cross-validated). Hypotheses whose fit
    produces non-finite LOO predictions are skipped as well.
    """
    # fast_multi imports this module: the kernel is bound at call time.
    from repro.regression.fast_multi import _batched_scores

    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    scored: list[ScoredModel] = []
    for hyp in hypotheses:
        if hyp.n_coefficients > n - 1:
            continue
        design, _ = _checked_design(hyp, points, values)
        cv, beta, surviving = _batched_scores(design[None], values[None], overwrite=True)
        if np.isfinite(cv[0]):
            fitted = FittedModel.from_row(hyp, beta[0], surviving[0])
            scored.append(ScoredModel(fitted=fitted, cv_smape=float(cv[0])))
    return scored


def _physically_plausible(model: ScoredModel) -> bool:
    """True when every non-constant term has a non-negative coefficient.

    The PMNF is a prior over *costs*: synthetic ground truths (and the
    paper's reported application models) combine positive-coefficient
    terms, optionally shifted by a (possibly negative) constant. A fitted
    negative growth term is almost always noise chasing -- it fits the
    measured range but extrapolates to nonsense (even negative runtimes).
    """
    return all(term.coefficient >= 0.0 for term in model.function.terms)


def select_best(scored: Sequence[ScoredModel]) -> ScoredModel:
    """Smallest CV-SMAPE wins; ties go to the structurally simpler model.

    Physically plausible models (non-negative term coefficients) are
    preferred as a class: an implausible fit is only selected when no
    plausible hypothesis exists at all. Together with the complexity
    tie-break this implements the paper's bias toward the "simplest
    explanation for the underlying performance behavior" and its use of the
    PMNF as a prior that "disregards unlikely outcomes".
    """
    if not scored:
        raise ValueError("no valid hypotheses to select from")
    # NaN CV-SMAPE corrupts min(): NaN comparisons are all False, so such a
    # candidate could win or lose purely by its position in the list. smape()
    # refuses non-finite inputs, so a NaN here means a scoring bug upstream;
    # fail loudly naming the candidates rather than selecting arbitrarily.
    corrupt = [s for s in scored if math.isnan(s.cv_smape)]
    if corrupt:
        names = ", ".join(s.function.format() for s in corrupt[:5])
        if len(corrupt) > 5:
            names += f", ... ({len(corrupt)} total)"
        raise ValueError(
            f"{len(corrupt)} candidate(s) carry NaN CV-SMAPE and cannot be "
            f"ranked: {names}"
        )
    plausible = [s for s in scored if _physically_plausible(s)]
    pool = plausible if plausible else scored
    return min(pool, key=lambda s: (s.cv_smape, s.fitted.hypothesis.complexity_key()))
