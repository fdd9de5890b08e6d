"""Batched modeling: a batch's kernels modeled stage by stage together.

A batch must give every kernel the outcome it gets alone -- the same
result, or the same exception -- while stacking the scoring work of all
its kernels into few ``_batched_scores`` calls and running each
``(pipeline, kernel)`` job once.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import repro.regression.fast_multi as fast_multi
from repro.evaluation import sweep
from repro.experiment.experiment import Kernel
from repro.experiment.measurement import value_table
from repro.modeling.batch import attempt, failed
from repro.modeling.candidates import FullSearchGenerator
from repro.modeling.registry import create_modeler, create_modelers
from repro.noise.injection import UniformNoise
from repro.regression.modeler import RegressionModeler
from repro.synthesis.functions import random_multi_parameter_function
from repro.synthesis.measurements import grid_points, synthesize_measurements
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator, clone_generator

SWEEP_SPECS = {"regression": "regression", "adaptive": "adaptive(use_domain_adaptation=False)"}


def synthetic_kernel(seed, n_params, noise=0.1, name="good"):
    gen = as_generator(seed)
    truth = random_multi_parameter_function(n_params, gen)
    sets = [random_sequence(5, None, gen) for _ in range(n_params)]
    kernel = Kernel(name)
    points = grid_points(sets)
    kernel.add_rows(points, synthesize_measurements(truth, points, UniformNoise(noise), rng=gen))
    return kernel


def kernel_from(name, coordinates, values):
    kernel = Kernel(name)
    kernel.add_rows(coordinates, values)
    return kernel


def bad_kernels(n_params):
    """Kernels that fail in different stages: too few points or too few
    coordinate dimensions (generate), a frozen parameter (generate), and
    values so large that every hypothesis's LOO score is non-finite (select)."""
    xs = (4.0, 8.0, 16.0, 32.0, 64.0)
    if n_params == 1:
        return [
            kernel_from("short", [(x,) for x in xs[:3]], [[1.0, 1.1]] * 3),
            kernel_from("huge", [(x,) for x in xs], [[1e308, 1.7e308]] * 5),
        ]
    return [
        kernel_from(
            "flat", [(x, *[8.0] * (n_params - 1)) for x in xs], [[x, 1.1 * x] for x in xs]
        ),
        kernel_from("one-dimensional", [(x,) for x in xs], [[x, 1.1 * x] for x in xs]),
    ]


def without_seconds(result):
    """Every field of a result but its timings, the function by value."""
    function = result.function
    provenance = dataclasses.replace(result.provenance, stage_seconds={})
    return (
        function.structure_key(),
        function.constant,
        [term.coefficient for term in function.terms],
        dataclasses.replace(result, function=None, seconds=0.0, provenance=provenance),
    )


@pytest.fixture
def sweep_modelers(tiny_network):
    modelers = create_modelers(SWEEP_SPECS)
    modelers["adaptive"].dnn._network = tiny_network
    return modelers


class TestBadKernelsFailAlone:
    @pytest.mark.parametrize("n_params", [1, 2, 3])
    @pytest.mark.parametrize(
        "spec",
        [
            "regression",
            "regression(engine=reference)",
            "adaptive(use_domain_adaptation=False)",
            "fused",
        ],
    )
    def test_batch_outcomes_match_per_kernel_runs(self, spec, n_params, tiny_network):
        overrides = {} if spec.startswith("regression") else {"network": tiny_network}

        def build():
            return create_modeler(spec, **overrides)

        good = [
            synthetic_kernel(seed, n_params, noise)
            for seed, noise in ((1, 0.01), (2, 0.6), (3, 0.05))
        ]
        kernels = good[:1] + bad_kernels(n_params) + good[1:]
        outcomes = build().model_kernels(kernels, n_params)
        assert len(outcomes) == len(kernels)
        # A second modeler, so each kernel meets cold caches as in the batch.
        modeler = build()
        for kernel, outcome in zip(kernels, outcomes):
            alone = attempt(modeler.model_kernel, kernel, n_params)
            assert failed(outcome) == failed(alone), kernel.name
            if failed(alone):
                assert type(outcome) is type(alone)
                assert str(outcome) == str(alone)
            else:
                assert without_seconds(outcome) == without_seconds(alone)
                assert outcome.provenance.n_candidates == alone.provenance.n_candidates
        assert sum(failed(o) for o in outcomes) == 2

    def test_only_the_bad_task_fails_in_a_sweep(self, sweep_modelers, monkeypatch):
        config = sweep.SweepConfig(n_params=2, noise_levels=(0.05,), n_functions=4, batch_size=4)
        tasks = [(0.05, np.random.default_rng(seed)) for seed in range(4)]
        sweep._init_worker(config, sweep_modelers)
        clean = sweep._run_batch([(noise, clone_generator(gen)) for noise, gen in tasks])[0]
        synthesize = sweep._synthesize_task
        calls = []

        def one_flat_kernel(noise, gen, config):
            truth, kernel, eval_pts, gen = synthesize(noise, gen, config)
            calls.append(kernel)
            if len(calls) == 2:
                kernel = bad_kernels(2)[0]
            return truth, kernel, eval_pts, gen

        monkeypatch.setattr(sweep, "_synthesize_task", one_flat_kernel)
        broken = sweep._run_batch(tasks)[0]
        for index, (expected, actual) in enumerate(zip(clean, broken)):
            for name in SWEEP_SPECS:
                if index == 1:
                    assert math.isinf(actual[name][0]) and actual[name][3] == ""
                else:
                    assert actual[name][0] == expected[name][0]
                    assert actual[name][3] == expected[name][3]


class TestStackedCalls:
    def test_one_call_per_shape_per_stage_per_chunk(self, sweep_modelers, monkeypatch):
        """One sweep batch: the line stage and each pipeline's fit stage make
        one ``_batched_scores`` call per ``(n, c)`` shape per 256 designs."""
        config = sweep.SweepConfig(n_params=2, noise_levels=(0.05,), n_functions=7, batch_size=7)
        tasks = [(0.05, np.random.default_rng(100 + seed)) for seed in range(7)]
        models = sweep._noise_models(config, tasks)
        kernels = [
            sweep._synthesize_task(models[n], clone_generator(g), config)[1] for n, g in tasks
        ]

        def chunks(shapes: Counter) -> int:
            return sum(math.ceil(count / fast_multi.STACK_CHUNK) for count in shapes.values())

        full, dnn = FullSearchGenerator(), sweep_modelers["adaptive"].dnn.pipeline.generator
        # 2 lines, each the constant and 42 term pairs
        expected = chunks(Counter({(5, 1): 7 * 2, (5, 2): 7 * 2 * 42}))
        for generator in (full, dnn):
            shapes = Counter()
            for kernel in kernels:
                points, values = value_table(kernel)
                hypotheses = generator.generate(kernel, 2, points, values).hypotheses
                shapes.update((25, hyp.n_coefficients) for hyp in hypotheses)
            expected += chunks(shapes)

        calls = []
        original = fast_multi._batched_scores

        def counting(designs, values, **kwargs):
            calls.append(designs.shape)
            return original(designs, values, **kwargs)

        monkeypatch.setattr(fast_multi, "_batched_scores", counting)
        sweep._init_worker(config, sweep_modelers)
        sweep._run_batch(tasks)
        assert len(calls) == expected
        assert max(shape[0] for shape in calls) == fast_multi.STACK_CHUNK
        assert all(shape[0] <= fast_multi.STACK_CHUNK for shape in calls)


class TestJobsRunOncePerBatch:
    def test_registry_shares_a_matching_regression(self):
        modelers = create_modelers(
            {
                "regression": "regression",
                "adaptive": "adaptive",
                "mean": "adaptive(aggregation=mean)",
                "filtered": "adaptive(prefilter=mad(k=3))",
            }
        )
        assert modelers["adaptive"].regression is modelers["regression"]
        assert modelers["mean"].regression is not modelers["regression"]
        assert modelers["filtered"].regression is not modelers["regression"]
        # Built objects are the caller's: never rewired.
        own = create_modeler("adaptive")
        assert create_modelers({"r": "regression", "a": own})["a"] is own
        assert own.regression is not None and type(own.regression) is RegressionModeler

    def test_regression_search_runs_once_per_kernel(self, sweep_modelers, monkeypatch):
        """Full-search work per sweep equals the number of kernels, not
        kernels x modelers, and adaptive still pays for the search it uses."""
        generated = []
        original = FullSearchGenerator.generate_many

        def counting(self, jobs):
            # The kernels themselves, not their ids: a kernel of an earlier
            # batch may be freed, and a later one may reuse its id.
            generated.extend(job.kernel for job in jobs)
            return original(self, jobs)

        monkeypatch.setattr(FullSearchGenerator, "generate_many", counting)
        config = sweep.SweepConfig(n_params=2, noise_levels=(0.01, 0.05), n_functions=4, batch_size=4)
        result = sweep.run_sweep(config, sweep_modelers, rng=3, processes=1)
        assert len(generated) == len({id(kernel) for kernel in generated}) == 8

        kernels = [synthetic_kernel(seed, 2, 0.01) for seed in range(3)]
        memo: dict = {}
        regression = sweep_modelers["regression"].model_kernels(kernels, 2, memo=memo)
        adaptive = sweep_modelers["adaptive"].model_kernels(kernels, 2, memo=memo)
        calm = [
            (reg, ada)
            for kernel, reg, ada in zip(kernels, regression, adaptive)
            if sweep_modelers["adaptive"].route(kernel, 2)[1].value == "calm"
        ]
        assert calm
        for reg, ada in calm:
            assert ada.seconds > reg.seconds
        assert result.cell(0.01, "adaptive").seconds > 0.0
