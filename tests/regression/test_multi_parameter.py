from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from repro.experiment.experiment import Kernel
from repro.pmnf.function import PerformanceFunction
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.hypothesis import Hypothesis
from repro.regression.multi_parameter import (
    MultiParameterModeler,
    combination_hypotheses,
    set_partitions,
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

    def test_private_constructor_matches_public(self):
        groups = ({0: CompoundTerm(F(3, 2), 1), 2: CompoundTerm(1)}, {1: CompoundTerm(0, 2)})
        public = Hypothesis(groups, 3)
        private = Hypothesis._from_blocks(
            groups,
            tuple(tuple((l, t.exponents) for l, t in g.items()) for g in groups),
            tuple(sorted(tuple((l, t.exponents) for l, t in g.items()) for g in groups)),
            [(t.power, t.j) for g in groups for t in g.values()],
            3,
        )
        assert_same_hypothesis(private, public)


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
