"""Multi-parameter regression modeling via single-parameter combination.

Following the paper (Sec. IV-D) and Calotoiu et al. 2016: each parameter is
first modeled separately along its measurement line; the resulting
single-parameter terms are then combined into multi-parameter hypotheses by
testing *all additive and multiplicative combinations* -- formally, all set
partitions of the active parameters, where terms inside a partition block
multiply and blocks add. Coefficients are refit jointly on all measurements
and the winner is chosen by LOO CV with SMAPE.

Which hypotheses that yields, and in which order, depends only on which
slots hold equal or constant terms. So each such pattern is expanded once
into a :class:`CombinationTemplate` of ``(parameter, slot)`` blocks
(:func:`combination_template`, cached), and a kernel's candidate set is a
:class:`Combinations`: that template plus the kernel's terms. The fast
engine fills its designs from it by index (:mod:`repro.regression.fast_multi`);
everything else reads built hypotheses from it.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from repro.experiment.experiment import Kernel
from repro.experiment.lines import ParameterLine, parameter_lines
from repro.experiment.measurement import value_table
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.hypothesis import Hypothesis
from repro.regression.selection import ScoredModel, evaluate_hypotheses, select_best
from repro.regression.single_parameter import SingleParameterModeler
from repro.util.cache import LRUCache


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


#: Per parameter, its candidate terms; a bare term or ``None`` is one.
PerParameterTerms = "Sequence[CompoundTerm | None | Sequence[CompoundTerm | None]]"

#: Templates kept, least recently used dropped first. At m = 3 a sweep has
#: at most 4^3 top-3 DNN patterns (up to 136 hypotheses, about 34 kB each
#: with a design plan) and 8 full-search ones: they all fit.
TEMPLATE_CACHE_SIZE = 128


class CombinationTemplate:
    """Hypotheses as ids of ``(parameter, slot)`` blocks: ``hypotheses``
    gives each one's block ids in group order, and ``blocks`` holds each
    distinct block once. ``designs`` memoizes the fast engine's plans."""

    __slots__ = ("n_params", "blocks", "hypotheses", "designs")

    def __init__(self, n_params: int, structures: "Iterable[Iterable[tuple]]"):
        ids: dict[tuple, int] = {}
        self.hypotheses = tuple(
            tuple(ids.setdefault(block, len(ids)) for block in blocks) for blocks in structures
        )
        self.n_params, self.blocks = n_params, tuple(ids)
        self.designs: dict = {}


_TEMPLATES = LRUCache(TEMPLATE_CACHE_SIZE)


def combination_template(pattern: "tuple[tuple[int, ...], ...]") -> CombinationTemplate:
    """The template of a pattern, expanded on first use and cached.

    ``pattern[l]`` gives each of parameter ``l``'s slots as the slot of its
    first equal term, or -1 if constant. Each choice of one slot per
    parameter, in ``itertools.product`` order, is expanded over the set
    partitions of its active parameters, after the constant hypothesis. A
    repeated choice adds nothing and distinct choices share no structure,
    so each structure is kept at its first occurrence: the historical
    order, which is the last tie-break of model selection.
    """
    template = _TEMPLATES.get(pattern)
    if template is None:
        structures = [[]] + [
            [tuple((l, choice[l]) for l in block) for block in partition]
            for choice in dict.fromkeys(product(*pattern))
            for partition in set_partitions([l for l, slot in enumerate(choice) if slot >= 0])
            if partition  # no active parameter: the constant, already first
        ]
        template = _TEMPLATES[pattern] = CombinationTemplate(len(pattern), structures)
    return template


class Combinations(Sequence[Hypothesis]):
    """A candidate set: a template plus ``terms[l][s]``, the term (or
    ``None``) in parameter ``l``'s slot ``s``. Reading a hypothesis builds
    it with the public constructor; the fast engine reads only its winner.
    """

    __slots__ = ("template", "terms")

    def __init__(self, template: CombinationTemplate, terms: tuple):
        self.template, self.terms = template, terms

    @classmethod
    def of(cls, per_parameter_candidates: PerParameterTerms) -> "Combinations":
        """All additive/multiplicative combinations of one term per parameter.

        ``per_parameter_candidates[l]`` lists parameter ``l``'s candidate
        terms (a bare term or ``None`` is a one-element list); ``None`` or a
        constant term marks the parameter as not influencing performance. A
        repeated term contributes its first occurrence.
        """
        terms = tuple(
            (c,) if c is None or isinstance(c, CompoundTerm) else tuple(c)
            for c in per_parameter_candidates
        )
        return cls(combination_template(tuple(map(_pattern, terms))), terms)

    def __len__(self) -> int:
        return len(self.template.hypotheses)

    def __getitem__(self, index: int) -> Hypothesis:
        return Hypothesis(self.groups(index), self.template.n_params)

    def groups(self, index: int) -> "list[dict[int, CompoundTerm]]":
        """Hypothesis ``index``'s term groups, without building it."""
        template, terms = self.template, self.terms
        return [{l: terms[l][s] for l, s in template.blocks[b]} for b in template.hypotheses[index]]


def _pattern(row: "Sequence[CompoundTerm | None]") -> "tuple[int, ...]":
    first: dict[ExponentPair, int] = {}
    return tuple(
        -1 if t is None or t.is_constant else first.setdefault(t.exponents, slot)
        for slot, t in enumerate(row)
    )


def indexed(hypotheses: Sequence[Hypothesis]) -> Combinations:
    """``hypotheses`` as :class:`Combinations`, in the same order."""
    if isinstance(hypotheses, Combinations):
        return hypotheses
    n_params = hypotheses[0].n_params if len(hypotheses) else 0
    rows: "list[dict]" = [{} for _ in range(n_params)]
    structures = [
        [tuple((l, _slot(rows[l], t)) for l, t in g.items()) for g in hyp.groups]
        for hyp in hypotheses
    ]
    return _listed(n_params, rows, structures)


def union(first: Combinations, second: Combinations) -> Combinations:
    """``first``'s hypotheses, then each of ``second``'s whose structure
    ``first`` lacks; no hypothesis is built."""
    n_params = first.template.n_params
    rows: "list[dict]" = [{} for _ in range(n_params)]
    seen: set = set()
    structures = []
    for part in (first, second):
        template, terms = part.template, part.terms
        blocks = [tuple((l, _slot(rows[l], terms[l][s])) for l, s in b) for b in template.blocks]
        for hyp in template.hypotheses:
            structure = [blocks[b] for b in hyp]
            key = tuple(sorted(structure))
            if key not in seen:
                seen.add(key)
                structures.append(structure)
    return _listed(n_params, rows, structures)


def _slot(row: "dict[ExponentPair, tuple[int, CompoundTerm]]", term: CompoundTerm) -> int:
    """The slot of ``term``'s exponent pair in ``row``, added if new: each
    distinct pair is one slot, holding the first term seen with it."""
    return row.setdefault(term.exponents, (len(row), term))[0]


def _listed(n_params: int, rows: "list[dict]", structures: list) -> Combinations:
    terms = tuple(tuple(t for _, t in row.values()) for row in rows)
    return Combinations(CombinationTemplate(n_params, structures), terms)


def combination_hypotheses(per_parameter_candidates: PerParameterTerms) -> list[Hypothesis]:
    """Every hypothesis of :meth:`Combinations.of`, built."""
    return list(Combinations.of(per_parameter_candidates))


class MultiParameterModeler:
    """Extra-P's multi-parameter modeler.

    ``aggregation`` selects the representative value of the repetitions
    (``median``/``mean``/``min``); the paper models the median.

    ``engine`` picks the engine evaluating the line and combination
    hypotheses: the stacked fast paths of :mod:`repro.regression.fast_single`
    and :mod:`repro.regression.fast_multi` (``'fast'``, the default) or the
    reference per-hypothesis loop (``'reference'``). Both fit and score
    through one least-squares kernel and select bit-identical models, pinned
    by ``tests/regression/test_fast_multi.py`` and
    ``tests/regression/test_fast_single.py``.
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
            points, values = value_table(kernel, self.aggregation)
            return self.single.model(points[:, 0], values)
        lines = parameter_lines(kernel, n_params)
        single_models = self.model_lines(lines)
        hypotheses = Combinations.of(self.lead_terms(single_models))
        points, values = value_table(kernel, self.aggregation)
        return self.evaluate_and_select(hypotheses, points, values)
