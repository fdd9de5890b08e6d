"""Vectorized single-parameter hypothesis search.

The reference implementation (:mod:`repro.regression.selection`) loops over
the 43 hypotheses, each paying a small SVD plus Python dispatch. This module
evaluates them all at once: the constant hypothesis as a one-column design,
and every two-coefficient hypothesis ``c0 + c1 * x^i log2^j x`` from one
exponent basis of ``x`` (:func:`repro.regression.fast_multi._exponent_basis`)
as a ``(n, 2)`` design, all scored by the shared least-squares and
leave-one-out kernel (:func:`repro.regression.fast_multi.score_stacked`).
:meth:`FastSingleParameterSearch.prescored` stacks the lines of a whole
batch of kernels into one such pass (one basis per line length, from
:func:`repro.regression.fast_multi.stacked_bases`, and one call per line
length, design width and chunk); a line it did not score is scored alone
through the same kernel. The winner's model is built from the coefficients and surviving
terms of that pass, so score, fit and winner are the reference's bit for
bit, pinned by ``tests/regression/test_fast_single.py``.

It runs on the per-parameter measurement lines of multi-parameter kernels
(``m >= 2``, through :class:`repro.modeling.candidates.FullSearchGenerator`
and :meth:`MultiParameterModeler.model_lines`) and in
:meth:`SingleParameterModeler.model`. The modeling pipeline's ``m = 1``
full search does not come here: it scores its 43 hypotheses through
:class:`repro.regression.fast_multi.FastMultiParameterSearch`.
"""

from __future__ import annotations

import copy
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.modeling.batch import attempt, failed
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.fast_multi import (
    DesignGroup,
    _exponent_basis,
    prescore_batch,
    score_stacked,
    stacked_bases,
)
from repro.regression.hypothesis import Hypothesis
from repro.regression.selection import ScoredModel


class _Line:
    """One measurement line's hypotheses as a :class:`DesignGroup`: the
    constant as the one-column design, each term pair as a two-column one."""

    __slots__ = ("xs", "values", "group")

    def __init__(self, search: "FastSingleParameterSearch", xs, values, basis=None):
        """``basis`` holds this line's term columns (a
        :func:`~repro.regression.fast_multi.stacked_bases` block), or is
        ``None`` to build them here."""
        self.xs, self.values = xs, values
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape:
            raise ValueError("xs and values must be 1-d arrays of equal length")
        if xs.size < 3:
            raise ValueError("need at least three points to cross-validate a term fit")
        buckets = {}
        if search.include_constant:
            buckets[1] = (1, [])
        if search.term_pairs:
            if basis is None:
                columns = _exponent_basis(xs, search.term_pairs)
                basis = [columns[pair] for pair in search.term_pairs]
            buckets[2] = (len(search.term_pairs), list(basis))
        self.group = DesignGroup(values, buckets)


class FastSingleParameterSearch:
    """Batched evaluation of the single-parameter hypotheses: the constant
    and ``c0 + c1 * x^i log2^j x``.

    Follows the reference selection rule (see :meth:`select`) on the
    reference's own scores, so it picks the reference's winner.
    """

    def __init__(self, pairs: Sequence[ExponentPair]):
        seen: list[ExponentPair] = []
        for pair in pairs:
            if pair not in seen:
                seen.append(pair)
        self.term_pairs = [p for p in seen if not p.is_constant]
        self.include_constant = any(p.is_constant for p in seen)
        #: Per coefficient count, the hypotheses of a line's designs in order.
        self._hypotheses: "dict[int, list[Hypothesis]]" = {}
        if self.include_constant:
            self._hypotheses[1] = [Hypothesis.constant(1)]
        if self.term_pairs:
            self._hypotheses[2] = [
                Hypothesis([{0: CompoundTerm.from_pair(p)}], 1) for p in self.term_pairs
            ]
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
        lines = [line for lines in line_sets for line in lines]
        bases = stacked_bases([xs for xs, _ in lines], [self.term_pairs] * len(lines))
        outcomes = [attempt(_Line, self, *line, basis) for line, basis in zip(lines, bases)]
        prepared = [line for line in outcomes if not failed(line)]
        prescore_batch("regression.stack_lines", [line.group for line in prepared], len(line_sets))
        search = copy.copy(self)
        search._scored = {
            id(line.values): line for line in prepared if line.group.scores is not None
        }
        return search

    # -------------------------------------------------------------- selection
    def select(self, xs: np.ndarray, values: np.ndarray) -> ScoredModel:
        """Find the CV/SMAPE winner under the reference selection rule.

        Ordering: physically plausible models (non-negative surviving term
        coefficient) are preferred as a class; within a class the key is
        ``(cv_smape, complexity)`` where the constant hypothesis is simplest
        and term hypotheses order by asymptotic growth. A line
        :meth:`prescored` stacked is served from that pass; any other is
        scored alone.
        """
        line = self._scored.get(id(values))
        if line is None or line.xs is not xs or line.values is not values:
            line = _Line(self, xs, values)
            score_stacked([line.group])

        candidates = []
        for c, hypotheses in self._hypotheses.items():
            cv, plausible, _, _ = line.group.scores[c]
            rows = zip(hypotheses, np.isfinite(cv).tolist(), plausible.tolist(), cv.tolist())
            for row, (hyp, finite, ok, score) in enumerate(rows):
                if finite:
                    candidates.append((not ok, score, hyp.complexity_key(), hyp, c, row))
        if not candidates:
            raise ValueError("no valid hypotheses to select from")
        *_, hypothesis, c, row = min(candidates, key=itemgetter(0, 1, 2))
        return line.group.scored(hypothesis, c, row)
