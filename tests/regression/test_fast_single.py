"""Equivalence of the batched fast path with the reference search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment.experiment import Kernel
from repro.experiment.lines import parameter_lines
from repro.experiment.measurement import value_table
from repro.noise.injection import UniformNoise
from repro.pmnf.function import PerformanceFunction
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.fast_single import FastSingleParameterSearch, _constant_cv_smape
from repro.regression.modeler import RegressionModeler
from repro.regression.single_parameter import SingleParameterModeler
from repro.synthesis.functions import random_single_parameter_function
from repro.synthesis.measurements import grid_points, synthesize_measurements
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator


def reference(xs, values):
    return SingleParameterModeler(engine="reference").model(xs, values)


def fast(xs, values):
    return SingleParameterModeler(engine="fast").model(xs, values)


def random_case(seed, noise=0.3, n_points=5):
    gen = as_generator(seed)
    truth = random_single_parameter_function(gen)
    xs = random_sequence(n_points, None, gen)
    values = truth.evaluate(xs[:, None])
    values = UniformNoise(noise).apply(values, gen)
    return xs, values


class TestEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=80, deadline=None)
    def test_same_winner_and_score(self, seed):
        xs, values = random_case(seed)
        ref = reference(xs, values)
        fst = fast(xs, values)
        assert fst.function.structure_key() == ref.function.structure_key()
        assert fst.cv_smape == pytest.approx(ref.cv_smape, rel=1e-9, abs=1e-9)
        pts = np.array([[xs[-1] * 4]])
        np.testing.assert_allclose(
            fst.function.evaluate(pts), ref.function.evaluate(pts), rtol=1e-9
        )

    @given(
        seed=st.integers(min_value=0, max_value=500),
        noise=st.sampled_from([0.0, 0.05, 1.0]),
        n_points=st.integers(min_value=5, max_value=11),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_across_scales(self, seed, noise, n_points):
        xs, values = random_case(seed, noise, n_points)
        ref = reference(xs, values)
        fst = fast(xs, values)
        assert fst.function.structure_key() == ref.function.structure_key()

    def test_constant_data(self):
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        values = np.full(5, 7.0)
        assert fast(xs, values).function.is_constant()

    def test_restricted_pairs(self):
        pairs = [ExponentPair(1, 0), ExponentPair(2, 0), ExponentPair(0, 0)]
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        values = 1.0 + 0.5 * xs**2
        best = SingleParameterModeler(pairs, engine="fast").model(xs, values)
        assert best.function.lead_exponents()[0].i == 2

    def test_negative_trend_prefers_plausible(self):
        """Decreasing data: both engines fall back to a plausible model
        (or, with no plausible candidate, the same implausible one)."""
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        values = np.array([100.0, 90.0, 78.0, 65.0, 40.0])
        ref = reference(xs, values)
        fst = fast(xs, values)
        assert fst.function.structure_key() == ref.function.structure_key()


class TestConstantCv:
    def test_matches_explicit_loo(self):
        values = np.array([10.0, 12.0, 9.0, 11.0, 10.5])
        n = values.size
        loo = np.array([np.mean(np.delete(values, i)) for i in range(n)])
        expected = np.mean(2 * np.abs(values - loo) / (np.abs(values) + np.abs(loo))) * 100
        assert _constant_cv_smape(values) == pytest.approx(expected)

    def test_single_point_raises_with_kernel_name(self):
        """n = 1 would divide by n - 1 = 0; the error names the kernel and
        the minimum point count instead."""
        with pytest.raises(ValueError, match=r"'solver'.*1 measurement point.*at least 2"):
            _constant_cv_smape(np.array([7.0]), kernel="solver")

    def test_empty_values_raise(self):
        with pytest.raises(ValueError, match="at least 2"):
            _constant_cv_smape(np.array([]))


class TestSearchConstruction:
    def test_duplicates_removed(self):
        search = FastSingleParameterSearch(
            [ExponentPair(1, 0), ExponentPair(1, 0), ExponentPair(0, 0)]
        )
        assert len(search.term_pairs) == 1
        assert search.include_constant

    def test_all_pairs(self):
        search = FastSingleParameterSearch(EXPONENT_PAIRS)
        assert len(search.term_pairs) == 42

    def test_too_few_points_rejected(self):
        search = FastSingleParameterSearch(EXPONENT_PAIRS)
        with pytest.raises(ValueError):
            search.select(np.array([2.0, 4.0]), np.array([1.0, 2.0]))


def constant_parameter_kernel(seed, n_params):
    """A kernel whose first parameter alone matters: every other
    parameter's measurement line is constant up to noise."""
    gen = as_generator(seed)
    pair = EXPONENT_PAIRS[int(gen.integers(len(EXPONENT_PAIRS)))]
    truth = PerformanceFunction.single_term(
        float(gen.uniform(1, 100)),
        float(gen.uniform(0.1, 10)),
        [pair] + [ExponentPair(0, 0)] * (n_params - 1),
    )
    sets = [random_sequence(5, None, gen) for _ in range(n_params)]
    noise = float(gen.choice([0.0, 0.01, 0.1, 0.5]))
    kernel = Kernel("constant-parameter")
    points = grid_points(sets)
    kernel.add_rows(
        points,
        synthesize_measurements(truth, points, UniformNoise(noise) if noise else None, rng=gen),
    )
    return kernel


class TestConstantParameterKernels:
    """The fast line search's contract on near-constant lines, end to end.

    There it may score last bits differently from the reference and, on
    exact-tie scores, pick another winning line hypothesis. The final kernel
    model still has the reference's structure; its coefficients are the
    reference's bit for bit whenever the line searches chose the same lead
    terms, and otherwise carry the weight of a pruned negligible term.
    """

    @pytest.mark.parametrize("n_params, count", [(2, 80), (3, 12)])
    def test_final_models_match_reference(self, n_params, count):
        fast_modeler = RegressionModeler(engine="fast")
        reference_modeler = RegressionModeler(engine="reference")
        same_lines = 0
        for seed in range(count):
            kernel = constant_parameter_kernel(seed, n_params)
            fst = fast_modeler.model_kernel(kernel, n_params)
            ref = reference_modeler.model_kernel(kernel, n_params)
            assert fst.function.structure_key() == ref.function.structure_key(), seed
            points, values = value_table(kernel)
            np.testing.assert_allclose(
                fst.function.evaluate(points), ref.function.evaluate(points), rtol=1e-4
            )
            lines = parameter_lines(kernel, n_params)
            lead_terms = [
                modeler.multi.lead_terms(modeler.multi.model_lines(lines))
                for modeler in (fast_modeler, reference_modeler)
            ]
            if lead_terms[0] == lead_terms[1]:
                same_lines += 1
                assert fst.function.constant == ref.function.constant, seed
                assert [t.coefficient for t in fst.function.terms] == [
                    t.coefficient for t in ref.function.terms
                ]
                assert fst.cv_smape == ref.cv_smape
        assert same_lines >= count // 2


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the fast line search breaks an exact CV tie toward a negligible-term "
        "hypothesis, and MultiParameterModeler.lead_terms passes that hypothesis, "
        "not the pruned function, into the combination, so the joint fit carries "
        "the term's weight before pruning it"
    ),
)
@pytest.mark.parametrize("seed", [80, 179, 226, 307])
def test_known_engine_mismatch_prints_the_same_model(seed):
    """The kernels on which the two engines are known to print different
    models; a fix of the tie makes these pass and must drop the mark."""
    kernel = constant_parameter_kernel(seed, 2)
    fast_model = RegressionModeler(engine="fast").model_kernel(kernel, 2)
    reference_model = RegressionModeler(engine="reference").model_kernel(kernel, 2)
    assert fast_model.function.format() == reference_model.function.format()
