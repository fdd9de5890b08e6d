"""A sweep batch scored in arrays: bitwise the per-pair formulas.

:func:`repro.evaluation.sweep._score_batch` scores every (function,
modeler) pair of a batch at once. Its oracle here is the scoring of one
pair at a time: the truth and the model each evaluated alone
(``PerformanceFunction.evaluate``), then ``relative_prediction_errors``,
``prediction_smape`` and ``lead_exponent_distance`` on that pair, any
exception failing the pair with ``_failed(config)``. The two must agree
bit for bit, NaN and inf positions included.
"""

import numpy as np
import pytest

from repro.evaluation import sweep
from repro.evaluation.accuracy import lead_exponent_distance
from repro.evaluation.predictive_power import prediction_smape, relative_prediction_errors
from repro.modeling.batch import unwrap
from repro.modeling.pipeline import ModelResult
from repro.modeling.registry import create_modelers
from repro.pmnf.function import MultiTerm, PerformanceFunction
from repro.pmnf.terms import CompoundTerm
from repro.util.seeding import as_generator, spawn_generators

SPECS = {"regression": "regression", "adaptive": "adaptive(use_domain_adaptation=False)"}


class Doubling:
    """A predictor-only baseline: twice the first parameter. It raises on
    the kernels in ``refuse`` and gives one value too few on those in
    ``short``."""

    def __init__(self, refuse=(), short=()):
        self.refuse = {id(kernel) for kernel in refuse}
        self.short = {id(kernel) for kernel in short}

    def predict_at(self, kernel, points):
        if id(kernel) in self.refuse:
            raise RuntimeError("no prediction for this kernel")
        values = np.array([2.0 * point[0] for point in points])
        return values[1:] if id(kernel) in self.short else values


def modelers_with(tiny_network, baseline):
    modelers = create_modelers(SPECS)
    modelers["adaptive"].dnn._network = tiny_network
    modelers["doubling"] = baseline
    return modelers


def synthesized(n_params, noise, size, seed=0):
    config = sweep.SweepConfig(
        n_params=n_params, noise_levels=(noise,), n_functions=size, batch_size=size
    )
    tasks = [(noise, gen) for gen in spawn_generators(as_generator(seed), size)]
    models = sweep._noise_models(config, tasks)
    return config, [sweep._synthesize_task(models[level], gen, config) for level, gen in tasks]


def scored_pair(truth, points, outcome, config) -> tuple:
    """One pair's outcome, scored alone."""
    try:
        if isinstance(outcome, tuple):  # a baseline's (predictions, seconds)
            predicted, seconds = outcome
            reference = np.atleast_1d(truth.evaluate(points))
            errors = relative_prediction_errors(predicted, reference, points)
            smape = prediction_smape(predicted, reference, points)
            return (np.nan, errors, seconds, "<predictor>", smape, 0)
        result = unwrap(outcome)
        function = result.function
        reference = np.atleast_1d(truth.evaluate(points))
        predicted = np.atleast_1d(function.evaluate(points))
        provenance = result.provenance
        return (
            lead_exponent_distance(function, truth),
            relative_prediction_errors(predicted, reference, points),
            result.seconds,
            function.format(),
            prediction_smape(predicted, reference, points),
            provenance.dropped_repetitions if provenance is not None else 0,
        )
    # repro-lint: disable-next-line=EXC001 -- the oracle of a failed pair
    except Exception:
        return sweep._failed(config)


def per_pair(prepared, modeled, config) -> list:
    return [
        {name: scored_pair(truth, points, outcomes[k], config) for name, outcomes in modeled.items()}
        for k, (truth, _, points, _) in enumerate(prepared)
    ]


def assert_same(actual: tuple, expected: tuple, seconds: bool = True):
    """Bitwise-equal outcomes: distance, errors, seconds (unless not
    ``seconds``: two modeling runs), model, SMAPE and drops."""
    assert len(actual) == len(expected) == 6
    assert type(actual[0]) is type(expected[0]) is float
    assert np.float64(actual[0]).tobytes() == np.float64(expected[0]).tobytes()
    for i in (1, 4):
        assert actual[i].dtype == expected[i].dtype and actual[i].shape == expected[i].shape
        assert actual[i].tobytes() == expected[i].tobytes()
    assert actual[3] == expected[3] and actual[5] == expected[5]
    assert actual[2] == expected[2] or not seconds


def assert_same_batch(actual: list, expected: list):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert list(got) == list(want)
        for name in want:
            assert_same(got[name], want[name])


def with_truth(task, truth):
    return (truth, *task[1:])


class TestBatchMatchesPerPair:
    @pytest.mark.parametrize(
        "n_params, noise, size",
        [(1, 0.02, 12), (1, 0.5, 12), (1, 1.0, 12), (2, 0.05, 6), (2, 0.75, 6), (3, 0.2, 3)],
    )
    def test_bitwise(self, tiny_network, n_params, noise, size):
        config, prepared = synthesized(n_params, noise, size, seed=n_params * 100 + size)
        modelers = modelers_with(tiny_network, Doubling())
        modeled = sweep._model_batch(prepared, config, modelers)
        scored = sweep._score_batch(prepared, modeled, modelers, config)
        assert_same_batch(scored, per_pair(prepared, modeled, config))
        assert all(np.isfinite(task["regression"][0]) for task in scored)

    def test_inf_and_nan_positions(self, tiny_network):
        """A model that overflows at P+ (inf errors, NaN SMAPE) and a NaN
        truth (NaN errors, zero SMAPE) are scored, not failed."""
        config, prepared = synthesized(2, 0.1, 5, seed=3)
        huge = PerformanceFunction(1.0, [MultiTerm(1e308, {0: CompoundTerm(3)})], 2)
        prepared[1] = with_truth(prepared[1], PerformanceFunction(np.nan, prepared[1][0].terms, 2))
        modelers = modelers_with(tiny_network, Doubling())
        modeled = sweep._model_batch(prepared, config, modelers)
        modeled["regression"][0] = ModelResult(huge, 0.0, "huge", 0.25, "synthetic")
        scored = sweep._score_batch(prepared, modeled, modelers, config)
        assert_same_batch(scored, per_pair(prepared, modeled, config))
        assert np.isinf(scored[0]["regression"][1]).all()
        assert np.isnan(scored[0]["regression"][4]).all()
        assert np.isnan(scored[1]["adaptive"][1]).all()
        assert (scored[1]["adaptive"][4] == 0.0).all()
        assert np.isfinite(scored[1]["adaptive"][0])


class TestFailedRows:
    """Each failure fails exactly its rows -- ``_failed(config)`` -- and
    leaves every other row as a clean batch scores it."""

    @pytest.mark.parametrize("n_params", [1, 2])
    def test_each_failure_fails_its_rows_alone(self, tiny_network, n_params):
        config, clean = synthesized(n_params, 0.1, 8, seed=11)
        _, prepared = synthesized(n_params, 0.1, 8, seed=11)
        m = n_params
        # Row 2: a truth whose evaluation raises (it has one parameter too many).
        prepared[2] = with_truth(
            prepared[2], PerformanceFunction(1.0, [MultiTerm(1.0, {m: CompoundTerm(1)})], m + 1)
        )
        # Row 3: a truth that is 0 at P+_2.
        zero_at = float(prepared[3][2][1, 0])
        prepared[3] = with_truth(
            prepared[3], PerformanceFunction(-zero_at, [MultiTerm(1.0, {0: CompoundTerm(1)})], m)
        )
        # Rows 4 and 5: the baseline raises, or gives too few predictions.
        baseline = Doubling(refuse=[prepared[4][1]], short=[prepared[5][1]])
        modelers = modelers_with(tiny_network, baseline)
        modeled = sweep._model_batch(prepared, config, modelers)
        # Row 1: a kernel whose modeling failed.
        modeled["regression"][1] = ValueError("modeling failed")
        scored = sweep._score_batch(prepared, modeled, modelers, config)
        assert_same_batch(scored, per_pair(prepared, modeled, config))

        clean_modelers = modelers_with(tiny_network, Doubling())
        clean_modeled = sweep._model_batch(clean, config, clean_modelers)
        expected = sweep._score_batch(clean, clean_modeled, clean_modelers, config)
        # Row 1: modeling; rows 2 and 3: the truth; rows 4 and 5: the baseline.
        failed = {
            1: {"regression"},
            2: set(modelers),
            3: set(modelers),
            4: {"doubling"},
            5: {"doubling"},
        }
        for k, (got, want) in enumerate(zip(scored, expected)):
            for name in modelers:
                if name in failed.get(k, ()):
                    assert_same(got[name], sweep._failed(config))
                else:
                    assert_same(got[name], want[name], seconds=False)
