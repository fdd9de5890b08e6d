"""Equivalence of the batched fast path with the reference search.

Both engines fit and score through one least-squares kernel, so every
model here must match the reference's bit for bit: printed model,
constant, coefficients and CV-SMAPE.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment.experiment import Kernel
from repro.noise.injection import UniformNoise
from repro.pmnf.function import PerformanceFunction
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.fast_multi import _batched_scores
from repro.regression.fast_single import FastSingleParameterSearch
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


def assert_same_model(fst, ref):
    """Bitwise-equal printed model, constant, coefficients and CV-SMAPE."""
    assert fst.function.format() == ref.function.format()
    assert fst.function.structure_key() == ref.function.structure_key()
    assert fst.function.constant == ref.function.constant
    assert [t.coefficient for t in fst.function.terms] == [
        t.coefficient for t in ref.function.terms
    ]
    assert fst.cv_smape == ref.cv_smape


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
        assert_same_model(fast(xs, values), reference(xs, values))

    @given(
        seed=st.integers(min_value=0, max_value=500),
        noise=st.sampled_from([0.0, 0.05, 1.0]),
        n_points=st.integers(min_value=5, max_value=11),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_across_scales(self, seed, noise, n_points):
        xs, values = random_case(seed, noise, n_points)
        assert_same_model(fast(xs, values), reference(xs, values))

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
        assert_same_model(fast(xs, values), reference(xs, values))


class TestConstantCv:
    """The constant hypothesis is the one-column design of the line search."""

    def test_matches_explicit_loo(self):
        """Its LOO prediction of each point is the mean of the others."""
        values = np.array([10.0, 12.0, 9.0, 11.0, 10.5])
        n = values.size
        loo = np.array([np.mean(np.delete(values, i)) for i in range(n)])
        expected = np.mean(2 * np.abs(values - loo) / (np.abs(values) + np.abs(loo))) * 100
        cv, beta, surviving = _batched_scores(np.ones((1, n, 1)), values[None])
        assert cv[0] == pytest.approx(expected)
        assert beta[0, 0] == pytest.approx(np.mean(values))
        assert not surviving.any()

    def test_single_point_raises(self):
        """n = 1 leaves no other point to predict it from; a constant-only
        line search refuses the line, naming the minimum point count."""
        search = FastSingleParameterSearch([ExponentPair(0, 0)])
        with pytest.raises(ValueError, match="at least three points"):
            search.select(np.array([4.0]), np.array([7.0]))

    def test_empty_values_raise(self):
        search = FastSingleParameterSearch([ExponentPair(0, 0)])
        with pytest.raises(ValueError, match="at least three points"):
            search.select(np.array([]), np.array([]))


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
    """The engines' contract on near-constant lines, end to end.

    There every line hypothesis fits almost exactly, so scores tie to
    within rounding; the engines share one kernel, so they break every such
    tie alike and print the reference's model bit for bit.
    """

    @pytest.mark.parametrize("n_params, count", [(2, 80), (3, 12)])
    def test_final_models_match_reference(self, n_params, count):
        fast_modeler = RegressionModeler(engine="fast")
        reference_modeler = RegressionModeler(engine="reference")
        for seed in range(count):
            kernel = constant_parameter_kernel(seed, n_params)
            fst = fast_modeler.model_kernel(kernel, n_params)
            ref = reference_modeler.model_kernel(kernel, n_params)
            assert_same_model(fst, ref)


@pytest.mark.parametrize("seed", [80, 179, 226, 307])
def test_known_engine_mismatch_prints_the_same_model(seed):
    """The kernels on which the engines once printed different models: an
    exact CV tie on a near-constant line, broken another way by each."""
    kernel = constant_parameter_kernel(seed, 2)
    fast_model = RegressionModeler(engine="fast").model_kernel(kernel, 2)
    reference_model = RegressionModeler(engine="reference").model_kernel(kernel, 2)
    assert fast_model.function.format() == reference_model.function.format()
