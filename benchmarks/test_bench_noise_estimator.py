"""In-text claim (Sec. IV-B): the rrd heuristic estimates the noise level
with an average prediction error of 4.93 %.

We regenerate the experiment: draw noise levels uniformly from [0, 100 %],
simulate measurement campaigns (25 points x 5 repetitions, the typical
two-parameter setup), estimate via rrd, and report the mean absolute error
in noise-level percentage points. The raw heuristic and the bias-corrected
variant (our extension) are reported side by side.
"""

import numpy as np

from repro.experiment.experiment import Kernel
from repro.noise.estimation import (
    estimate_noise_level,
    estimate_noise_level_corrected,
)
from repro.noise.injection import UniformNoise
from repro.util.seeding import spawn_generators
from repro.util.tables import render_table

N_TRIALS = 400
N_POINTS = 25
REPS = 5


def _campaign(level: float, gen) -> Kernel:
    noise = UniformNoise(level)
    kern = Kernel("k")
    kern.add_rows(
        [[i + 2.0] for i in range(N_POINTS)],
        [noise.apply(np.full(REPS, gen.uniform(1.0, 1000.0)), gen) for _ in range(N_POINTS)],
    )
    return kern


def test_noise_estimator_error(record_table, benchmark):
    raw_errors, corrected_errors = [], []
    for gen in spawn_generators(99, N_TRIALS):
        level = float(gen.uniform(0.0, 1.0))
        kern = _campaign(level, gen)
        raw_errors.append(abs(estimate_noise_level(kern) - level))
        corrected_errors.append(abs(estimate_noise_level_corrected(kern) - level))

    raw = float(np.mean(raw_errors)) * 100
    corrected = float(np.mean(corrected_errors)) * 100
    record_table(
        "Sec IV-B noise-estimator accuracy",
        render_table(
            ["estimator", "mean abs error (pp)", "paper"],
            [
                ["rrd (raw)", f"{raw:.2f}", "4.93"],
                ["rrd (bias-corrected)", f"{corrected:.2f}", "-"],
            ],
        ),
    )
    assert raw < 15.0, "raw rrd should be in the paper's error regime"
    assert corrected < raw, "bias correction should help at this configuration"
    assert corrected < 5.0

    gen = spawn_generators(5, 1)[0]
    kern = _campaign(0.5, gen)
    benchmark(lambda: estimate_noise_level(kern))
