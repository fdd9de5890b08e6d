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

    Two engines exist: the reference per-hypothesis loop and a batched
    fast path (:mod:`repro.regression.fast_single`, default) that evaluates
    all hypotheses in one stacked pass. Both fit and score through the same
    least-squares kernel, so they return bitwise-equal models, pinned by
    ``tests/regression/test_fast_single.py``. ``engine`` names the engine
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
        #: The fast line search, or ``None`` on the reference engine.
        self.fast = None
        if self.engine == "fast":
            from repro.regression.fast_single import FastSingleParameterSearch

            self.fast = FastSingleParameterSearch(self.pairs)

    def model(self, xs: np.ndarray, values: np.ndarray, search=None) -> ScoredModel:
        """Model one measurement line (``values`` are the per-point medians).

        ``search`` is a :meth:`FastSingleParameterSearch.prescored` search of
        this modeler's fast engine, which serves the line from its stacked
        pass; by default the line is scored alone.
        """
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape:
            raise ValueError("xs and values must be 1-d arrays of equal length")
        if xs.size < 5:
            raise ValueError(
                f"Extra-P requires at least five measurement points per parameter, got {xs.size}"
            )
        search = search or self.fast
        if search is not None:
            return search.select(xs, values)
        points = xs[:, None]
        scored = evaluate_hypotheses(self.hypotheses, points, values)
        return select_best(scored)
