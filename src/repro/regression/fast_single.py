"""Vectorized single-parameter hypothesis search.

The reference implementation (:mod:`repro.regression.selection`) loops over
the 43 hypotheses, each paying a small SVD plus Python dispatch. This module
evaluates all two-coefficient hypotheses ``c0 + c1 * x^i log2^j x`` at once:
the term columns come from one exponent basis of ``x``
(:func:`repro.regression.fast_multi._exponent_basis`), stacked into
``(h, n, 2)`` designs and scored by the shared batched-SVD and
leave-one-out kernel (:func:`repro.regression.fast_multi.score_stacked`).
:meth:`FastSingleParameterSearch.prescored` stacks the lines of a whole
batch of kernels into one such pass (one call per line length and chunk);
a line it did not score is scored alone through the same kernel.

What is and is not identical to the reference search: the winner is refit
through the reference solver, so the returned fit is the reference's fit of
that hypothesis (its ``cv_smape`` is the fast score). The scores are not
the reference's bits -- the batched
SVD and the closed-form constant LOO round differently in the last bits --
so ``cv_smape`` agrees to about ``1e-9`` relative, and on near-constant
lines, where hypotheses tie to within that rounding, the winning
*hypothesis* can differ (a term with a negligible coefficient instead of
the constant, or another such term). A kernel model built from these lines
kept the reference's structure in every kernel tested, since the
multi-parameter search prunes negligible terms; its coefficients are the reference's bit for bit when
the line winners agree, and otherwise differ by the weight the pruned term
took in the joint fit. ``tests/regression/test_fast_single.py`` pins this
for random lines and for ``m = 2`` and ``m = 3`` kernels with a constant
parameter.

It runs on the per-parameter measurement lines of multi-parameter kernels
(``m >= 2``, through :class:`repro.modeling.candidates.FullSearchGenerator`
and :meth:`MultiParameterModeler.model_lines`) and in
:meth:`SingleParameterModeler.model`. The modeling pipeline's ``m = 1``
full search does not come here: it scores its 43 hypotheses through
:class:`repro.regression.fast_multi.FastMultiParameterSearch`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.fast_multi import (
    DesignGroup,
    _exponent_basis,
    prescore_batch,
    score_stacked,
)
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


class _Line:
    """One measurement line's constant score and term-pair designs."""

    __slots__ = ("xs", "values", "cv_const", "group")

    def __init__(self, search: "FastSingleParameterSearch", xs, values):
        self.xs, self.values = xs, values
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape:
            raise ValueError("xs and values must be 1-d arrays of equal length")
        if xs.size < 3:
            raise ValueError("need at least three points to cross-validate a term fit")
        self.cv_const = _constant_cv_smape(values) if search.include_constant else None
        self.group = None
        if search.term_pairs:
            basis = _exponent_basis(xs, search.term_pairs)
            # A pruned-to-constant fit (negligible term) counts as
            # plausible, matching the reference's post-pruning check.
            self.group = DesignGroup(
                values,
                {2: (len(search.term_pairs), [basis[pair] for pair in search.term_pairs])},
                scale=max(abs(values).max(), 1e-300),
            )


class FastSingleParameterSearch:
    """Batched evaluation of single-term hypotheses ``c0 + c1 * x^i log2^j x``.

    Follows the reference selection rule (see :meth:`select`) on its own
    scores, which match the reference's to about ``1e-9`` relative, not
    bitwise: exact ties can resolve to another hypothesis (module docs).
    """

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
        #: ``id(values)`` -> a line scored by :meth:`prescored`.
        self._scored: "dict[int, _Line]" = {}

    def prescored(
        self, line_sets: "Sequence[Sequence[tuple[np.ndarray, np.ndarray]]]"
    ) -> "FastSingleParameterSearch":
        """A search whose :meth:`select` serves these lines from one stacked pass.

        ``line_sets`` holds one list of ``(xs, values)`` lines per kernel;
        :meth:`select` finds a line by the identity of both arrays. A line
        that fails to prepare, or whose chunk raises, is left out:
        :meth:`select` then scores it alone and raises its error there.
        The returned search lives as long as the batch that holds it.
        """
        prepared: "list[_Line]" = []
        for lines in line_sets:
            for xs, values in lines:
                try:
                    prepared.append(_Line(self, xs, values))
                # repro-lint: disable-next-line=EXC001 -- not swallowed: the
                # line stays unscored, and select() re-raises this for it.
                except Exception:
                    continue
        prescore_batch(
            "regression.stack_lines",
            [line.group for line in prepared if line.group is not None],
            len(line_sets),
        )
        search = object.__new__(FastSingleParameterSearch)
        search.__dict__.update(self.__dict__)
        search._scored = {
            id(line.values): line
            for line in prepared
            if line.group is None or line.group.scores is not None
        }
        return search

    # -------------------------------------------------------------- selection
    def select(self, xs: np.ndarray, values: np.ndarray) -> ScoredModel:
        """Find the CV/SMAPE winner under the reference selection rule.

        Ordering: physically plausible models (non-negative term
        coefficient) are preferred as a class; within a class the key is
        ``(cv_smape, complexity)`` where the constant hypothesis is simplest
        and term hypotheses order by asymptotic growth. A line
        :meth:`prescored` stacked is served from that pass; any other is
        scored alone.
        """
        line = self._scored.get(id(values))
        if line is None or line.xs is not xs or line.values is not values:
            line = _Line(self, xs, values)
            if line.group is not None:
                score_stacked([line.group])

        candidates: list[tuple[bool, float, tuple, "Hypothesis | None"]] = []
        if line.cv_const is not None:
            candidates.append((True, line.cv_const, (0, ()), None))
        if line.group is not None:
            cv, plausible = line.group.scores[2]
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
        xs = np.asarray(xs, dtype=float)
        fitted = fit_hypothesis(hypothesis, xs[:, None], np.asarray(values, dtype=float))
        return ScoredModel(fitted=fitted, cv_smape=best_cv)
