"""Single-parameter regression modeling: the full 43-hypothesis search."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.hypothesis import Hypothesis
from repro.regression.selection import ScoredModel, evaluate_hypotheses, select_best


def single_parameter_hypotheses(
    pairs: "Sequence[ExponentPair] | None" = None,
) -> list[Hypothesis]:
    """One hypothesis ``c0 + c1 * x^i log2^j(x)`` per exponent pair.

    The constant pair ``(0, 0)`` yields the intercept-only hypothesis. By
    default the full search space ``E`` is used; the DNN modeler passes its
    top-k predicted pairs instead.
    """
    pairs = EXPONENT_PAIRS if pairs is None else pairs
    hypotheses = []
    seen = set()
    for pair in pairs:
        if pair in seen:
            continue
        seen.add(pair)
        if pair.is_constant:
            hypotheses.append(Hypothesis.constant(1))
        else:
            hypotheses.append(Hypothesis([{0: CompoundTerm.from_pair(pair)}], 1))
    return hypotheses


class SingleParameterModeler:
    """Extra-P's single-parameter modeler.

    Searches all exponent pairs of ``E``, fits coefficients by least
    squares, and selects via LOO cross-validation with SMAPE.

    Two engines exist: the reference per-hypothesis loop and a batched-SVD
    fast path (:mod:`repro.regression.fast_single`, default) that evaluates
    all hypotheses in one vectorized pass. They agree on the winner except
    where scores tie to within rounding (near-constant lines; see that
    module), pinned by ``tests/regression/test_fast_single.py``.
    ``engine`` names the engine
    (``'fast'``/``'reference'``, see :mod:`repro.modeling.engine`).
    """

    def __init__(
        self,
        pairs: "Sequence[ExponentPair] | None" = None,
        engine: str = "fast",
    ):
        from repro.modeling.engine import resolve_fit_engine
        from repro.pmnf.searchspace import EXPONENT_PAIRS

        self.pairs = list(EXPONENT_PAIRS if pairs is None else pairs)
        self.hypotheses = tuple(single_parameter_hypotheses(self.pairs))
        self.engine = resolve_fit_engine(engine)
        self._fast = None
        if self.engine == "fast":
            from repro.regression.fast_single import FastSingleParameterSearch

            self._fast = FastSingleParameterSearch(self.pairs)

    def prescored(
        self, line_sets: "Sequence[Sequence[tuple[np.ndarray, np.ndarray]]]"
    ) -> "SingleParameterModeler":
        """A modeler whose :meth:`model` serves these lines (one list of
        ``(xs, values)`` per kernel) from one stacked fast-engine pass; the
        reference engine has nothing to stack and returns itself."""
        if self._fast is None:
            return self
        modeler = object.__new__(SingleParameterModeler)
        modeler.__dict__.update(self.__dict__, _fast=self._fast.prescored(line_sets))
        return modeler

    def model(self, xs: np.ndarray, values: np.ndarray) -> ScoredModel:
        """Model one measurement line (``values`` are the per-point medians)."""
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape:
            raise ValueError("xs and values must be 1-d arrays of equal length")
        if xs.size < 5:
            raise ValueError(
                f"Extra-P requires at least five measurement points per parameter, got {xs.size}"
            )
        if self._fast is not None:
            return self._fast.select(xs, values)
        points = xs[:, None]
        scored = evaluate_hypotheses(self.hypotheses, points, values)
        return select_best(scored)
