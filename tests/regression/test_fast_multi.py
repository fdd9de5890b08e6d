"""Equivalence of the batched multi-parameter engine with the reference loop.

The fast engine must select the same winner hypothesis as the reference
per-hypothesis loop and -- because both score every design with the same
least-squares kernel -- return bit-identical coefficients and CV-SMAPE.
Pinned here across several hundred random multi-parameter tasks at
multiple noise levels, the DNN modeler's top-k combination shape, plus
explicitly rank-deficient designs.
"""

import numpy as np
import pytest

from repro.experiment.experiment import Kernel
from repro.experiment.lines import parameter_lines
from repro.experiment.measurement import value_table
from repro.noise.injection import UniformNoise
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.fast_multi import (
    STACK_CHUNK,
    DesignGroup,
    FastMultiParameterSearch,
    _batched_scores,
    score_stacked,
)
from repro.regression.hypothesis import Hypothesis
from repro.regression.multi_parameter import (
    MultiParameterModeler,
    combination_hypotheses,
)
from repro.regression.selection import evaluate_hypotheses, select_best
from repro.synthesis.functions import random_multi_parameter_function
from repro.synthesis.measurements import grid_coordinates, grid_points, synthesize_measurements
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator

SEARCH = FastMultiParameterSearch()


def combination_task(seed, n_params=2, noise=0.3):
    """One random task: combination hypotheses + measurement table."""
    gen = as_generator(seed)
    truth = random_multi_parameter_function(n_params, gen)
    sets = [random_sequence(5, None, gen) for _ in range(n_params)]
    kernel = Kernel("task")
    noise_model = UniformNoise(noise) if noise > 0 else None
    points = grid_points(sets)
    kernel.add_rows(points, synthesize_measurements(truth, points, noise_model, rng=gen))
    modeler = MultiParameterModeler(engine="reference")
    lines = parameter_lines(kernel, n_params)
    hypotheses = combination_hypotheses(
        modeler.lead_terms(modeler.model_lines(lines))
    )
    points, values = value_table(kernel, "median")
    return hypotheses, points, values


def dnn_like_tasks(seed=20210517, shapes=((2, 30), (3, 20)), top_k=3):
    """Tasks shaped like the DNN modeler's multi-parameter hot path.

    Each parameter gets ``top_k`` random candidate pairs, expanded over all
    additive/multiplicative combinations as ``DNNTopKGenerator`` does, on a
    ``5^m`` grid: about 19 hypotheses per task at m = 2 and 133 at m = 3,
    where :func:`combination_task` has one lead term per parameter. One
    generator draws every task of every ``(n_params, count)`` shape in turn.
    """
    gen = as_generator(seed)
    for n_params, count in shapes:
        for _ in range(count):
            truth = random_multi_parameter_function(n_params, gen)
            sets = [random_sequence(5, None, gen) for _ in range(n_params)]
            points = np.stack([c.as_array() for c in grid_coordinates(sets)])
            values = UniformNoise(0.2).apply(np.atleast_1d(truth.evaluate(points)), gen)
            candidates = []
            for _ in range(n_params):
                picks = gen.choice(len(EXPONENT_PAIRS), size=top_k, replace=False)
                pairs = (EXPONENT_PAIRS[int(i)] for i in picks)
                candidates.append(
                    [None if p.is_constant else CompoundTerm.from_pair(p) for p in pairs]
                )
            yield combination_hypotheses(candidates), points, values


def assert_same_model(fst, ref):
    """Bit-identical: one kernel scores and fits every design."""
    assert fst.function.format() == ref.function.format()
    assert fst.function.structure_key() == ref.function.structure_key()
    assert fst.cv_smape == ref.cv_smape
    assert fst.function.constant == ref.function.constant
    np.testing.assert_array_equal(
        [t.coefficient for t in fst.function.terms],
        [t.coefficient for t in ref.function.terms],
    )


def scored_designs(kernel):
    """``(implausible, cv, index, c, row)`` of each of a scored kernel's
    designs with a finite score: hypothesis ``index``, scored as row ``row``
    of its ``c``-coefficient bucket."""
    designs = []
    for c, (ids, _) in kernel.buckets.items():
        cv, plausible, _, _ = kernel.group.scores[c]
        for row, idx in enumerate(ids):
            if np.isfinite(cv[row]):
                designs.append((not plausible[row], float(cv[row]), idx, c, row))
    return designs


def assert_engines_agree(hypotheses, points, values):
    ref = select_best(evaluate_hypotheses(hypotheses, points, values))
    fst = SEARCH.select(hypotheses, points, values)
    assert fst.fitted.hypothesis.structure_key() == ref.fitted.hypothesis.structure_key()
    assert_same_model(fst, ref)


class TestEquivalence:
    """>= 200 random tasks in total across the parametrized noise levels."""

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.3, 1.0])
    def test_two_parameter_tasks(self, noise):
        for seed in range(40):
            hypotheses, points, values = combination_task(seed, 2, noise)
            assert_engines_agree(hypotheses, points, values)

    @pytest.mark.parametrize("noise", [0.05, 0.5])
    def test_three_parameter_tasks(self, noise):
        for seed in range(15):
            hypotheses, points, values = combination_task(seed, 3, noise)
            assert_engines_agree(hypotheses, points, values)

    def test_dnn_like_top_k_tasks(self):
        for hypotheses, points, values in dnn_like_tasks():
            assert_engines_agree(hypotheses, points, values)

    def test_modeler_level_equivalence(self):
        """End to end through MultiParameterModeler with both engines."""
        for seed in range(10):
            gen = as_generator(seed)
            truth = random_multi_parameter_function(2, gen)
            sets = [random_sequence(5, None, gen) for _ in range(2)]
            kernel = Kernel("task")
            points = grid_points(sets)
            kernel.add_rows(points, synthesize_measurements(truth, points, UniformNoise(0.2), rng=gen))
            ref = MultiParameterModeler(engine="reference").model_kernel(kernel, 2)
            fst = MultiParameterModeler(engine="fast").model_kernel(kernel, 2)
            assert_same_model(fst, ref)


def hand_hypotheses():
    """Additive, multiplicative, and constant 2-parameter hypotheses."""
    a = CompoundTerm.from_pair(ExponentPair(1, 0))
    b = CompoundTerm.from_pair(ExponentPair(2, 0))
    return [
        Hypothesis.constant(2),
        Hypothesis([{0: a}], 2),
        Hypothesis([{1: b}], 2),
        Hypothesis([{0: a}, {1: b}], 2),
        Hypothesis([{0: a, 1: b}], 2),
    ]


class TestRankDeficient:
    def test_collinear_parameters(self):
        """Points on the diagonal x2 = x1 make the term columns collinear."""
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        points = np.stack([xs, xs], axis=1)
        values = 3.0 + 2.0 * xs
        assert_engines_agree(hand_hypotheses(), points, values)

    def test_constant_second_parameter(self):
        """A frozen parameter makes its column proportional to the intercept."""
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        points = np.stack([xs, np.full(5, 8.0)], axis=1)
        values = 1.0 + 0.5 * xs
        assert_engines_agree(hand_hypotheses(), points, values)

    def test_duplicate_rows(self):
        xs = np.array([4.0, 4.0, 8.0, 8.0, 16.0, 16.0])
        points = np.stack([xs, xs[::-1]], axis=1)
        values = 2.0 + xs + 0.1 * xs[::-1]
        assert_engines_agree(hand_hypotheses(), points, values)


class TestEdgeCases:
    def test_too_few_points_skips_large_hypotheses(self):
        """With n = 2 only hypotheses with one coefficient survive -- exactly
        the reference's c > n - 1 rule."""
        points = np.array([[4.0, 4.0], [8.0, 16.0]])
        values = np.array([5.0, 9.0])
        kernel = SEARCH.score(hand_hypotheses(), points, values)
        assert all(
            kernel.hypotheses[idx].n_coefficients <= 1 for ids, _ in kernel.buckets.values()
            for idx in ids
        )
        assert_engines_agree(hand_hypotheses(), points, values)

    #: A tie-break case's points and values (a plain linear kernel).
    TIE_POINTS = np.array([[4.0, 2.0], [8.0, 3.0], [16.0, 5.0], [32.0, 7.0], [64.0, 11.0]])

    def rescored(self, hypotheses, *candidates):
        """The kernel of ``hypotheses`` as scored, with every design's score
        made non-finite except the ``(implausible, cv, order)`` candidates,
        whose plausibility and score are replaced."""
        kernel = SEARCH.score(hypotheses, self.TIE_POINTS, 1.0 + self.TIE_POINTS[:, 0])
        scores = kernel.group.scores
        for c, (cv, plausible, beta, surviving) in scores.items():
            scores[c] = (np.full_like(cv, np.inf), plausible.copy(), beta, surviving)
        where = {
            idx: (c, row) for c, (ids, _) in kernel.buckets.items() for row, idx in enumerate(ids)
        }
        for implausible, cv, order in candidates:
            c, row = where[order]
            scores[c][0][row], scores[c][1][row] = cv, not implausible
        return kernel

    def test_score_ties_break_by_complexity_then_order(self):
        """Among candidates tied on plausibility and score, the simplest
        structure wins, then the earliest; a plausible one beats any
        implausible one, and a lower score beats any complexity."""
        hyps = hand_hypotheses()  # 0: constant, 1: x1, 3: x1 + x2^2, 4: x1 * x2^2

        def winner(*candidates):
            return SEARCH.choose(self.rescored(hyps, *candidates)).fitted.hypothesis.group_keys

        assert winner((False, 1.0, 4), (False, 1.0, 3)) == hyps[4].group_keys
        assert winner((False, 1.0, 3), (False, 1.0, 1)) == hyps[1].group_keys
        assert winner((True, 0.5, 0), (False, 2.0, 3)) == hyps[3].group_keys
        assert winner((False, 1.0, 0), (False, 0.5, 4)) == hyps[4].group_keys
        same = [Hypothesis([{0: CompoundTerm(1)}], 2), Hypothesis([{0: CompoundTerm(1)}], 2)]
        chosen = SEARCH.choose(self.rescored(same, (False, 1.0, 1), (False, 1.0, 0)))
        assert chosen.fitted.hypothesis is same[0]

    def test_empty_candidates_raise(self):
        """A kernel without a finite-scored design -- or without any design
        -- has nothing to choose from."""
        with pytest.raises(ValueError, match="no valid hypotheses"):
            SEARCH.choose(self.rescored(hand_hypotheses()))
        kernel = SEARCH.score(hand_hypotheses(), np.array([[4.0, 4.0]]), np.array([5.0]))
        assert not kernel.buckets
        with pytest.raises(ValueError, match="no valid hypotheses"):
            SEARCH.choose(kernel)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, m\)"):
            SEARCH.score(hand_hypotheses(), np.zeros(5), np.zeros(5))


# ---------------------------------------------------------------- stacking
#: The design shapes of the sweeps: m = 1 and measurement lines (5 points),
#: m = 3 grids (125 points) with up to four coefficients.
SWEEP_SHAPES = ((5, 1), (5, 2), (125, 1), (125, 2), (125, 3), (125, 4))


def random_designs(gen, n, c, h):
    """``h`` designs of shape ``(n, c)`` with their own value vectors.

    Term columns are PMNF term evaluations on random positive columns; every
    third design is rank-deficient (a duplicated or intercept-proportional
    column), and every fifth value vector contains an infinity, so its LOO
    predictions are non-finite.
    """
    designs = np.empty((h, n, c))
    designs[:, :, 0] = 1.0
    for k in range(h):
        x = gen.uniform(1.0, 512.0, n)
        for j in range(1, c):
            pair = EXPONENT_PAIRS[int(gen.integers(len(EXPONENT_PAIRS)))]
            designs[k, :, j] = CompoundTerm.from_pair(pair).evaluate(x)
        if k % 3 == 1 and c > 1:
            designs[k, :, c - 1] = designs[k, :, 1] if c > 2 else 7.0
    values = gen.uniform(0.5, 1e4, (h, n))
    values[::5, n // 2] = np.inf
    return designs, values


def assert_same_bits(actual, expected):
    for a, e in zip(actual, expected):
        assert a.shape == e.shape
        assert np.array_equal(a, e, equal_nan=True)


class TestStackingInvariance:
    """A design's scores do not depend on what it is stacked with.

    The cross-kernel batch path rests on this: ``cv``, ``beta`` and ``pred``
    of every design are bitwise equal whether it is scored alone or stacked
    with unrelated designs that carry other value vectors, in any chunk.
    """

    @pytest.mark.parametrize("n, c", SWEEP_SHAPES)
    def test_alone_equals_stacked(self, n, c):
        gen = as_generator(n * 10 + c)
        designs, values = random_designs(gen, n, c, 40)
        with np.errstate(all="ignore"):
            stacked = _batched_scores(designs, values)
            for k in range(designs.shape[0]):
                alone = _batched_scores(designs[k : k + 1], values[k : k + 1])
                assert_same_bits(alone, [out[k : k + 1] for out in stacked])
        assert np.isinf(stacked[0][::5]).all()  # the non-finite LOO rows

    def test_groups_across_chunk_boundaries(self):
        """Groups of mixed shapes and sizes, more designs than several chunks
        hold, score as each would alone -- and as each design would alone."""
        gen = as_generator(2021)
        groups = []
        for size in (1, 300, 17, STACK_CHUNK, 90, STACK_CHUNK + 1):
            n = (5, 125)[size % 2]
            buckets, values = {}, gen.uniform(0.5, 1e4, n)
            for c in (1, 2, 3, 4) if n == 125 else (1, 2):
                designs, _ = random_designs(gen, n, c, max(1, size // c))
                buckets[c] = (
                    len(designs),
                    [designs[k, :, j] for k in range(len(designs)) for j in range(1, c)],
                )
            groups.append(DesignGroup(values, buckets))
        with np.errstate(all="ignore"):
            calls = score_stacked(groups)
            assert calls < sum(g.designs for g in groups)
            stacked = [dict(group.scores) for group in groups]
            for group, scores in zip(groups, stacked):
                score_stacked([group])
                for c, parts in scores.items():
                    assert_same_bits(parts, group.scores[c])
                    design = group.buckets[c][1][: c - 1]
                    single = DesignGroup(group.values, {c: (1, design)})
                    score_stacked([single])
                    assert_same_bits(single.scores[c], [part[:1] for part in parts])

    def test_chunk_failure_is_isolated(self):
        """A design whose SVD cannot converge fails its chunk; with
        ``isolate`` the other chunks' groups are still scored."""
        gen = as_generator(7)
        good = [DesignGroup(gen.uniform(1, 9, 5), {2: (1, [gen.uniform(1, 9, 5)])}) for _ in range(3)]
        bad = DesignGroup(gen.uniform(1, 9, 5), {2: (1, [np.full(5, np.nan)])})
        far = DesignGroup(gen.uniform(1, 9, 6), {2: (1, [gen.uniform(1, 9, 6)])})
        with pytest.raises(np.linalg.LinAlgError):
            score_stacked([*good, bad, far])
        score_stacked([*good, bad, far], isolate=True)
        assert all(group.scores is None for group in (*good, bad))
        assert far.scores is not None

    def test_prescored_search_serves_identical_candidates(self):
        """``prescored`` answers ``score`` from the stacked pass with the
        candidates scoring alone gives, and scores unknown jobs alone."""
        jobs = [combination_task(seed, 2, 0.3) for seed in range(6)]
        jobs += list(dnn_like_tasks(shapes=((3, 4),)))
        jobs = [(tuple(h), p, v) for h, p, v in jobs]
        search = SEARCH.prescored(jobs)
        for job in [*jobs, combination_task(99, 2, 0.3)]:
            stacked, alone = search.score(*job), SEARCH.score(*job)
            assert scored_designs(stacked) == scored_designs(alone)
            assert_same_model(search.choose(stacked), SEARCH.choose(alone))
