from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from repro.experiment.experiment import Kernel
from repro.pmnf.function import PerformanceFunction
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.hypothesis import Hypothesis
from repro.regression.fast_multi import _KernelDesigns
from repro.regression.multi_parameter import (
    Combinations,
    MultiParameterModeler,
    combination_hypotheses,
    indexed,
    set_partitions,
    union,
)
from repro.synthesis.measurements import grid_points, synthesize_measurements

F = Fraction
X1 = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
X2 = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
X3 = np.array([3.0, 6.0, 9.0, 12.0, 15.0])


def kernel_for(function: PerformanceFunction, value_sets) -> Kernel:
    kern = Kernel("k")
    points = grid_points(value_sets)
    kern.add_rows(points, synthesize_measurements(function, points, rng=0))
    return kern


class TestSetPartitions:
    @pytest.mark.parametrize("n, bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)])
    def test_bell_numbers(self, n, bell):
        assert len(list(set_partitions(list(range(n))))) == bell

    def test_partitions_cover_all_items(self):
        for partition in set_partitions([0, 1, 2]):
            flat = sorted(x for block in partition for x in block)
            assert flat == [0, 1, 2]


class TestCombinationHypotheses:
    def test_two_active_parameters(self):
        terms = [CompoundTerm(1), CompoundTerm(2)]
        hyps = combination_hypotheses(terms)
        # constant + additive + multiplicative
        assert len(hyps) == 3
        sizes = sorted(len(h.groups) for h in hyps)
        assert sizes == [0, 1, 2]

    def test_inactive_parameter_dropped(self):
        hyps = combination_hypotheses([CompoundTerm(1), None])
        assert len(hyps) == 2  # constant + single term

    def test_all_constant(self):
        hyps = combination_hypotheses([None, CompoundTerm(0, 0)])
        assert len(hyps) == 1
        assert hyps[0].groups == ()

    def test_three_parameters_partition_count(self):
        terms = [CompoundTerm(1), CompoundTerm(2), CompoundTerm(0, 1)]
        hyps = combination_hypotheses(terms)
        assert len(hyps) == 6  # constant + Bell(3)


def reference_combinations(candidates) -> list[Hypothesis]:
    """The per-combination expansion: one public-constructor hypothesis per
    partition of every candidate product, deduplicated by structure."""
    hypotheses, seen = [], set()
    for combo in product(*candidates):
        n_params = len(combo)
        active = {l: t for l, t in enumerate(combo) if t is not None and not t.is_constant}
        for partition in [None, *set_partitions(sorted(active))]:
            if partition is None:
                hyp = Hypothesis.constant(n_params)
            else:
                hyp = Hypothesis([{l: active[l] for l in block} for block in partition], n_params)
            if hyp.structure_key() not in seen:
                seen.add(hyp.structure_key())
                hypotheses.append(hyp)
    return hypotheses


def assert_same_hypothesis(hyp: Hypothesis, ref: Hypothesis) -> None:
    assert type(hyp) is type(ref)
    for slot in Hypothesis.__slots__:
        assert getattr(hyp, slot) == getattr(ref, slot), slot
    assert hyp.structure_key() == ref.structure_key()
    assert hyp.complexity_key() == ref.complexity_key()
    for group, ref_group in zip(hyp.groups, ref.groups):
        assert list(group) == list(ref_group)
        assert all(a is b for a, b in zip(group.values(), ref_group.values()))


def random_top_k(gen, n_params: int, k: int = 3) -> list:
    """Top-k-like candidate lists with constant and repeated pairs mixed in."""
    candidates = []
    for _ in range(n_params):
        row = []
        for _ in range(k):
            pair = EXPONENT_PAIRS[int(gen.integers(len(EXPONENT_PAIRS)))]
            if gen.random() < 0.2:
                pair = ExponentPair(0, 0)
            row.append(None if pair.is_constant else CompoundTerm.from_pair(pair))
        if gen.random() < 0.3:
            row.append(CompoundTerm.from_pair(row[0].exponents) if row[0] else None)
        candidates.append(row)
    return candidates


class TestBlockBuiltExpansion:
    @pytest.mark.parametrize("n_params", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_combination_loop(self, n_params, seed):
        candidates = random_top_k(np.random.default_rng(seed), n_params)
        hypotheses = combination_hypotheses(candidates)
        expected = reference_combinations(candidates)
        assert len(hypotheses) == len(expected)
        for hyp, ref in zip(hypotheses, expected):
            assert hyp.group_keys == ref.group_keys
            assert_same_hypothesis(hyp, ref)

    def test_bare_terms_are_one_element_lists(self):
        terms = [CompoundTerm(1), None, CompoundTerm(F(1, 2), 1)]
        bare = combination_hypotheses(terms)
        listed = combination_hypotheses([[t] for t in terms])
        assert [h.group_keys for h in bare] == [h.group_keys for h in listed]

    def test_repeated_candidate_keeps_first_term_object(self):
        first, again = CompoundTerm(2), CompoundTerm(2)
        hypotheses = combination_hypotheses([[first, again], [CompoundTerm(1)]])
        assert len(hypotheses) == 3  # constant, product, sum; the repeat adds none
        assert all(t is not again for h in hypotheses for g in h.groups for t in g.values())

    @pytest.mark.parametrize("n_params", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_template_matches_oracle_with_constants_and_repeats(self, n_params, k):
        """Every ``(m, k)`` with the constant in each slot position and a
        repeated pair: the template's hypotheses are the oracle's, in order,
        with the first-occurrence term objects."""
        gen = np.random.default_rng(1000 * n_params + k)
        for constant_slot in range(k):
            candidates = template_candidates(gen, n_params, k, constant_slot)
            combinations = Combinations.of(candidates)
            hypotheses = list(combinations)
            expected = reference_combinations(candidates)
            assert len(combinations) == len(hypotheses) == len(expected)
            for hyp, ref in zip(hypotheses, expected):
                assert hyp.group_keys == ref.group_keys
                assert_same_hypothesis(hyp, ref)
            assert [combinations[i].group_keys for i in range(len(expected))] == [
                h.group_keys for h in expected
            ]

    @pytest.mark.parametrize("n_params", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_fast_buckets_are_the_materialized_columns(self, n_params, k):
        """The fast engine fills its buckets from the template by index; each
        bucket is bitwise the design columns of its materialized hypotheses."""
        gen = np.random.default_rng(2000 * n_params + k)
        points = gen.uniform(1.5, 64.0, size=(8, n_params))
        values = gen.uniform(1.0, 2.0, size=8)
        for constant_slot in range(k):
            combinations = Combinations.of(template_candidates(gen, n_params, k, constant_slot))
            designs = _KernelDesigns(combinations, points, values).build()
            hypotheses = list(combinations)
            assert sum(count for count, _ in designs.group.buckets.values()) == len(hypotheses)
            for c, (count, columns) in designs.group.buckets.items():
                ids = designs.buckets[c][0]
                assert count == len(ids)
                expected = [hypotheses[i].design_matrix(points)[:, 1:].T for i in ids]
                actual = np.reshape(columns, (count, c - 1, len(values)))
                assert actual.tobytes() == np.array(expected).reshape(actual.shape).tobytes()

    def test_materialized_match_constructor(self):
        """Every hypothesis a template builds equals the public constructor's
        from its groups, attribute for attribute."""
        gen = np.random.default_rng(5)
        for n_params in (2, 3, 4):
            combinations = Combinations.of(random_top_k(gen, n_params, k=4))
            for hyp in combinations:
                assert_same_hypothesis(hyp, Hypothesis(hyp.groups, n_params))

    @pytest.mark.parametrize("n_params", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_union_is_the_structure_deduplicated_concatenation(self, n_params, seed):
        """``union`` builds the first set's hypotheses, then each of the
        second's with a new structure, with the first term object of each
        exponent pair: what deduplicating the built lists gives."""
        gen = np.random.default_rng(seed)
        top_k = random_top_k(gen, n_params)
        # Half the full set's terms are new objects equal to a DNN term.
        full = Combinations.of(
            [
                [CompoundTerm.from_pair(row[-1].exponents) if row[-1] and l % 2 == 0 else lead[0]]
                for l, (row, lead) in enumerate(zip(top_k, random_top_k(gen, n_params, k=1)))
            ]
        )
        dnn = Combinations.of(top_k)
        merged = union(full, dnn)
        expected, seen = [], set()
        for hyp in [*full, *dnn]:
            if hyp.structure_key() not in seen:
                seen.add(hyp.structure_key())
                expected.append(hyp)
        assert len(merged) == len(expected)
        first = {}
        for hyp in expected:
            for group in hyp.groups:
                for l, term in group.items():
                    first.setdefault((l, term.exponents), term)
        for hyp, ref in zip(merged, expected):
            rebuilt = Hypothesis(
                [{l: first[l, t.exponents] for l, t in g.items()} for g in ref.groups], n_params
            )
            assert_same_hypothesis(hyp, rebuilt)

    def test_concurrent_expansion_matches_serial(self):
        """Threads expanding and planning the same patterns at once, from an
        empty template cache, build what one thread builds."""
        import sys
        import threading

        from repro.regression import multi_parameter

        gen = np.random.default_rng(11)
        points = gen.uniform(1.5, 64.0, size=(9, 3))
        values = gen.uniform(1.0, 2.0, size=9)
        sets = [random_top_k(gen, 3) for _ in range(12)]

        def build(candidates):
            combinations = Combinations.of(candidates)
            designs = _KernelDesigns(combinations, points, values).build()
            buckets = {c: np.array(cols).tobytes() for c, (_, cols) in designs.group.buckets.items()}
            return [h.group_keys for h in combinations], buckets

        multi_parameter._TEMPLATES.clear()
        serial = [build(candidates) for candidates in sets]
        results: dict = {}
        errors = []

        def worker(t, order, barrier):
            try:
                barrier.wait(timeout=60)
                for i in order:
                    results[t, int(i)] = build(sets[int(i)])
            # repro-lint: disable-next-line=EXC001 -- not swallowed: failures
            # cross the thread boundary through `errors` and fail the test.
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(4):
                # Every thread takes the sets in one order: they race on each
                # first expansion and plan.
                multi_parameter._TEMPLATES.clear()
                order = np.random.default_rng(round_).permutation(len(sets))
                barrier = threading.Barrier(8)
                threads = [
                    threading.Thread(target=worker, args=(8 * round_ + t, order, barrier))
                    for t in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 4 * 8 * len(sets)
        assert all(results[t, i] == serial[i] for t, i in results)

    def test_indexed_list_keeps_order_and_repeats(self):
        """A hand-written list, repeats included, indexes to the same
        hypotheses in the same order."""
        a, b = CompoundTerm(1), CompoundTerm(2, 1)
        listed = [
            Hypothesis([{1: b}, {0: a}], 2),
            Hypothesis.constant(2),
            Hypothesis([{0: a, 1: b}], 2),
            Hypothesis([{1: b}, {0: a}], 2),
        ]
        combinations = indexed(listed)
        assert len(combinations) == len(listed)
        for hyp, ref in zip(combinations, listed):
            assert_same_hypothesis(hyp, ref)


def template_candidates(gen, n_params: int, k: int, constant_slot: int) -> list:
    """``k`` candidates per parameter: random pairs, a constant (``None`` or
    the constant term, by parameter) in ``constant_slot``, and, from
    ``k = 3``, a later slot that repeats an earlier pair as a new term."""
    candidates = []
    for l in range(n_params):
        picks = gen.choice(len(EXPONENT_PAIRS) - 1, size=k, replace=False) + 1
        row = [CompoundTerm.from_pair(EXPONENT_PAIRS[int(i)]) for i in picks]
        row[constant_slot] = None if l % 2 else CompoundTerm(0, 0)
        if k >= 3:
            source = next(t for t in row if t is not None and not t.is_constant)
            later = [s for s in range(k) if s != constant_slot and row[s] is not source]
            row[later[-1]] = CompoundTerm.from_pair(source.exponents)
        candidates.append(row)
    return candidates


class TestMultiParameterModeler:
    def test_multiplicative_recovery(self):
        truth = PerformanceFunction.single_term(
            3.0, 0.5, [ExponentPair(1, 0), ExponentPair(F(1, 2), 1)]
        )
        best = MultiParameterModeler().model_kernel(kernel_for(truth, [X1, X2]), 2)
        assert best.function.lead_exponents() == truth.lead_exponents()
        assert len(best.function.terms) == 1  # one product term

    def test_additive_recovery(self):
        truth = PerformanceFunction.additive(
            2.0, [1.5, 0.3], [ExponentPair(1, 0), ExponentPair(2, 0)]
        )
        best = MultiParameterModeler().model_kernel(kernel_for(truth, [X1, X2]), 2)
        assert best.function.lead_exponents() == truth.lead_exponents()
        assert len(best.function.terms) == 2  # two additive terms

    def test_inactive_parameter_recovery(self):
        truth = PerformanceFunction(
            4.0, [PerformanceFunction.single_term(0, 1.0, [ExponentPair(2, 0)]).terms[0]], 2
        )
        best = MultiParameterModeler().model_kernel(kernel_for(truth, [X1, X2]), 2)
        leads = best.function.lead_exponents()
        assert leads[0].i == 2 and leads[1].is_constant

    def test_three_parameter_recovery(self):
        from repro.pmnf.function import MultiTerm

        truth = PerformanceFunction(
            8.51,
            [MultiTerm(0.11, {0: CompoundTerm(F(1, 3)), 1: CompoundTerm(1), 2: CompoundTerm(F(4, 5))})],
            3,
        )
        best = MultiParameterModeler().model_kernel(kernel_for(truth, [X1, X2, X3]), 3)
        assert best.function.lead_exponents() == truth.lead_exponents()

    def test_single_parameter_passthrough(self):
        truth = PerformanceFunction.single_term(1.0, 2.0, [ExponentPair(1, 0)])
        best = MultiParameterModeler().model_kernel(kernel_for(truth, [X1]), 1)
        assert best.function.lead_exponents()[0].i == 1

    def test_n_params_beyond_coordinates_raises_value_error(self):
        from repro.modeling.registry import create_modeler

        truth = PerformanceFunction.single_term(1.0, 2.0, [ExponentPair(1, 0), ExponentPair(1, 0)])
        kern = kernel_for(truth, [X1, X2])
        with pytest.raises(ValueError, match=r"kernel 'k' has 2-dimensional.*n_params=3"):
            create_modeler("regression").model_kernel(kern, 3)
