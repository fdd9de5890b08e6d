"""Ablation: which representative value should modeling use?

Sec. II lists "the use of a more representative value for modeling such as
the median or minimum" among the classic noise countermeasures. This bench
compares median (the paper's choice), mean, and min aggregation for the
regression modeler under symmetric uniform noise and under spike-polluted
noise (where the three statistics genuinely differ).
"""

import numpy as np

from repro.evaluation.accuracy import lead_exponent_distance
from repro.evaluation.sweep import SweepConfig, _init_worker, _run_task
from repro.experiment.experiment import Kernel
from repro.noise.injection import LognormalSpikeNoise, NoiseModel, UniformNoise
from repro.regression.modeler import RegressionModeler
from repro.synthesis.functions import random_single_parameter_function
from repro.synthesis.measurements import grid_points, synthesize_measurements
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import spawn_generators
from repro.util.tables import render_table

N_FUNCTIONS = 120


def _accuracy(aggregation: str, noise: NoiseModel, seed: int) -> float:
    modeler = RegressionModeler(aggregation=aggregation)
    correct = 0
    for gen in spawn_generators(seed, N_FUNCTIONS):
        truth = random_single_parameter_function(gen)
        xs = random_sequence(5, None, gen)
        kernel = Kernel("k")
        points = grid_points([xs])
        kernel.add_rows(points, synthesize_measurements(truth, points, noise, 5, gen))
        result = modeler.model_kernel(kernel, 1)
        if lead_exponent_distance(result.function, truth) <= 0.25 + 1e-12:
            correct += 1
    return correct / N_FUNCTIONS


def test_aggregation_strategies(record_table, benchmark):
    scenarios = {
        "uniform 50%": UniformNoise(0.5),
        "spiky 20%": LognormalSpikeNoise(level=0.2, spike_probability=0.3, spike_scale=0.6),
    }
    results = {}
    rows = []
    for label, noise in scenarios.items():
        for aggregation in ("median", "mean", "min"):
            acc = _accuracy(aggregation, noise, seed=61)
            results[(label, aggregation)] = acc
            rows.append([label, aggregation, f"{acc * 100:.1f}"])
    record_table(
        "Ablation: repetition aggregation (regression, m=1, d<=1/4 accuracy %)",
        render_table(["noise", "aggregation", "accuracy %"], rows),
    )

    # Under one-sided spike pollution the mean is dragged by outliers; the
    # robust statistics must not lose to it.
    spiky = {agg: results[("spiky 20%", agg)] for agg in ("median", "mean", "min")}
    assert max(spiky["median"], spiky["min"]) >= spiky["mean"] - 0.05
    # All strategies stay in a sane regime under symmetric noise.
    uniform = [results[("uniform 50%", agg)] for agg in ("median", "mean", "min")]
    assert min(uniform) > 0.30

    # The timed unit is one full modeling task under median aggregation:
    config = SweepConfig(n_params=1, noise_levels=(0.5,), n_functions=1)
    _init_worker(config, {"regression": RegressionModeler()})
    gens = iter(spawn_generators(0, 100000))
    benchmark(lambda: _run_task((0.5, next(gens))))
