"""Multi-parameter regression modeling via single-parameter combination.

Following the paper (Sec. IV-D) and Calotoiu et al. 2016: each parameter is
first modeled separately along its measurement line; the resulting
single-parameter terms are then combined into multi-parameter hypotheses by
testing *all additive and multiplicative combinations* -- formally, all set
partitions of the active parameters, where terms inside a partition block
multiply and blocks add. Coefficients are refit jointly on all measurements
and the winner is chosen by LOO CV with SMAPE.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.experiment.experiment import Kernel
from repro.experiment.lines import ParameterLine, parameter_lines
from repro.experiment.measurement import value_table
from repro.pmnf.terms import CompoundTerm
from repro.regression.hypothesis import Hypothesis
from repro.regression.selection import ScoredModel, evaluate_hypotheses, select_best
from repro.regression.single_parameter import SingleParameterModeler


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """All set partitions of ``items`` (Bell(n) many; 5 for n = 3)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        # first joins an existing block ...
        for k in range(len(partition)):
            yield partition[:k] + [[first] + partition[k]] + partition[k + 1 :]
        # ... or opens its own block.
        yield [[first]] + partition


def combination_hypotheses(
    per_parameter_terms: "Sequence[CompoundTerm | None]",
) -> list[Hypothesis]:
    """All additive/multiplicative combinations of one term per parameter.

    ``per_parameter_terms[l]`` is parameter ``l``'s single-parameter term, or
    ``None``/constant if the parameter was found not to influence
    performance. The constant hypothesis is always included.
    """
    n_params = len(per_parameter_terms)
    active = {
        l: t
        for l, t in enumerate(per_parameter_terms)
        if t is not None and not t.is_constant
    }
    hypotheses = [Hypothesis.constant(n_params)]
    seen = {hypotheses[0].structure_key()}
    for partition in set_partitions(sorted(active)):
        groups = [{l: active[l] for l in block} for block in partition]
        hyp = Hypothesis(groups, n_params)
        key = hyp.structure_key()
        if key not in seen:
            seen.add(key)
            hypotheses.append(hyp)
    return hypotheses


class MultiParameterModeler:
    """Extra-P's multi-parameter modeler.

    ``aggregation`` selects the representative value of the repetitions
    (``median``/``mean``/``min``); the paper models the median.

    ``engine`` picks the engine evaluating the combination hypotheses:
    the batched-SVD fast path of :mod:`repro.regression.fast_multi`
    (``'fast'``, the default) or the reference per-hypothesis loop
    (``'reference'``). Both engines select bit-identical models -- the
    equivalence is pinned by ``tests/regression/test_fast_multi.py``.
    """

    def __init__(
        self,
        single: "SingleParameterModeler | None" = None,
        aggregation: str = "median",
        engine: str = "fast",
    ):
        from repro.modeling.engine import resolve_fit_engine

        self.single = single or SingleParameterModeler(engine=engine)
        self.aggregation = aggregation
        self.engine = resolve_fit_engine(engine)
        self._fast = None
        if self.engine == "fast":
            from repro.regression.fast_multi import FastMultiParameterSearch

            self._fast = FastMultiParameterSearch()

    def evaluate_and_select(
        self, hypotheses: Sequence[Hypothesis], points, values
    ) -> ScoredModel:
        """Fit, LOO-score, and select over ``hypotheses`` via the engine."""
        if self._fast is not None:
            return self._fast.select(hypotheses, points, values)
        return select_best(evaluate_hypotheses(hypotheses, points, values))

    def model_lines(self, lines: Sequence[ParameterLine]) -> list[ScoredModel]:
        """Single-parameter models for each parameter's measurement line."""
        return [
            self.single.model(line.xs, line.values(self.aggregation)) for line in lines
        ]

    @staticmethod
    def lead_terms(models: Sequence[ScoredModel]) -> list["CompoundTerm | None"]:
        """Extract each single-parameter model's term (None when constant)."""
        terms: list[CompoundTerm | None] = []
        for scored in models:
            groups = scored.fitted.hypothesis.groups
            terms.append(groups[0][0] if groups else None)
        return terms

    def model_kernel(self, kernel: Kernel, n_params: int) -> ScoredModel:
        """Create a multi-parameter model for one kernel.

        For ``n_params == 1`` this degrades to the plain single-parameter
        search over all measurements.
        """
        if n_params == 1:
            points, values = value_table(kernel.measurements, self.aggregation)
            return self.single.model(points[:, 0], values)
        lines = parameter_lines(kernel, n_params)
        single_models = self.model_lines(lines)
        hypotheses = combination_hypotheses(self.lead_terms(single_models))
        points, values = value_table(kernel.measurements, self.aggregation)
        return self.evaluate_and_select(hypotheses, points, values)
