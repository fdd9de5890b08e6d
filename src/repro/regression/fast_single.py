"""Vectorized single-parameter hypothesis search.

The reference implementation (:mod:`repro.regression.selection`) loops over
the 43 hypotheses, each paying a small SVD plus Python dispatch. This module
evaluates all two-coefficient hypotheses ``c0 + c1 * x^i log2^j x`` at once:
the term columns come from one exponent basis of ``x``
(:func:`repro.regression.fast_multi._exponent_basis`), stacked into an
``(h, n, 2)`` design tensor and scored by the shared batched-SVD and
leave-one-out kernel (:func:`repro.regression.fast_multi._batched_scores`).
The selected winner is then refit through the reference path, so the
returned model object is bit-identical to what the slow search produces; an
equivalence test pins winner and CV score against the reference for random
inputs.

It runs on the per-parameter measurement lines of multi-parameter kernels
(``m >= 2``, through :meth:`MultiParameterModeler.model_lines`) and in
:meth:`SingleParameterModeler.model`. The modeling pipeline's ``m = 1``
full search does not come here: it scores its 43 hypotheses through
:class:`repro.regression.fast_multi.FastMultiParameterSearch`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.fast_multi import _batched_scores, _exponent_basis
from repro.regression.hypothesis import Hypothesis, fit_hypothesis
from repro.regression.selection import ScoredModel


def _constant_cv_smape(values: np.ndarray, kernel: str = "") -> float:
    """LOO CV of the intercept-only model, in closed form.

    Needs at least two points: each left-out point is predicted by the mean
    of the remaining ``n - 1``. ``kernel`` (optional) names the offender in
    the error message.
    """
    n = values.size
    if n < 2:
        label = f"kernel {kernel!r}" if kernel else "kernel"
        raise ValueError(
            f"{label} has {n} measurement point(s); leave-one-out "
            "cross-validation of a constant fit needs at least 2"
        )
    loo = (np.sum(values) - values) / (n - 1)
    denom = np.abs(values) + np.abs(loo)
    ratio = np.where(denom > 0, 2.0 * np.abs(values - loo) / denom, 0.0)
    return float(np.mean(ratio) * 100.0)


class FastSingleParameterSearch:
    """Batched evaluation of single-term hypotheses ``c0 + c1 * x^i log2^j x``."""

    def __init__(self, pairs: Sequence[ExponentPair]):
        seen: list[ExponentPair] = []
        for pair in pairs:
            if pair not in seen:
                seen.append(pair)
        self.term_pairs = [p for p in seen if not p.is_constant]
        self.include_constant = any(p.is_constant for p in seen)
        self._hypotheses = [
            Hypothesis([{0: CompoundTerm.from_pair(p)}], 1) for p in self.term_pairs
        ]
        # Precomputed ordering keys replicating Hypothesis.complexity_key():
        # (#groups, growth keys descending). Constant = (0, ()).
        self._growth = [p.growth_key() for p in self.term_pairs]

    # -------------------------------------------------------------- selection
    def select(self, xs: np.ndarray, values: np.ndarray) -> ScoredModel:
        """Find the CV/SMAPE winner, replicating the reference selection.

        Ordering: physically plausible models (non-negative term
        coefficient) are preferred as a class; within a class the key is
        ``(cv_smape, complexity)`` where the constant hypothesis is simplest
        and term hypotheses order by asymptotic growth.
        """
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape:
            raise ValueError("xs and values must be 1-d arrays of equal length")
        if xs.size < 3:
            raise ValueError("need at least three points to cross-validate a term fit")

        candidates: list[tuple[bool, float, tuple, "Hypothesis | None"]] = []
        if self.include_constant:
            cv_const = _constant_cv_smape(values)
            candidates.append((True, cv_const, (0, ()), None))
        if self.term_pairs:
            basis = _exponent_basis(xs, self.term_pairs)
            designs = np.empty((len(self.term_pairs), xs.size, 2))
            designs[:, :, 0] = 1.0
            for k, pair in enumerate(self.term_pairs):
                designs[k, :, 1] = basis[pair]
            cv, beta, _ = _batched_scores(designs, values)
            coeffs = beta[:, 1]
            # A pruned-to-constant fit (negligible term) counts as
            # plausible, matching the reference's post-pruning check.
            scale = max(abs(values).max(), 1e-300)
            term_magnitude = np.abs(coeffs) * np.max(np.abs(designs[:, :, 1]), axis=1)
            plausible = (coeffs >= 0.0) | (term_magnitude <= 1e-9 * scale)
            rows = zip(
                self._hypotheses,
                self._growth,
                np.isfinite(cv).tolist(),
                plausible.tolist(),
                cv.tolist(),
            )
            candidates.extend(
                (ok, score, (1, (growth,)), hyp)
                for hyp, growth, finite, ok, score in rows
                if finite
            )
        if not candidates:
            raise ValueError("no valid hypotheses to select from")

        plausible_pool = [c for c in candidates if c[0]]
        pool = plausible_pool if plausible_pool else candidates
        _, best_cv, _, hypothesis = min(pool, key=lambda c: (c[1], c[2]))
        if hypothesis is None:
            hypothesis = Hypothesis.constant(1)
        fitted = fit_hypothesis(hypothesis, xs[:, None], values)
        return ScoredModel(fitted=fitted, cv_smape=best_cv)
