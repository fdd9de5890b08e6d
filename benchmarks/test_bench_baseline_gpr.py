"""Related-work baseline: Gaussian process regression (Sec. II).

The paper contrasts its approach with GPR (Duplyakin et al.): GPR increases
noise resilience "while sacrificing some of their predictive power". This
bench tests that claim on the synthetic benchmark: median relative error at
the in-range midpoint (interpolation) and at P+4 (extrapolation), for
regression / adaptive / GPR, at low and high noise.

Expected shape: GPR interpolates competitively even at high noise (the
learned noise variance absorbs scatter), but its extrapolation collapses --
the stationary RBF prior reverts to the data mean beyond the measured
range, while the PMNF-based modelers carry their structure outward.
"""

import numpy as np

from repro.baselines.gpr import GPRModeler
from repro.evaluation.predictive_power import relative_prediction_errors
from repro.experiment.experiment import Kernel
from repro.experiment.measurement import Coordinate
from repro.noise.injection import UniformNoise
from repro.synthesis.evaluation_points import evaluation_points
from repro.synthesis.functions import random_single_parameter_function
from repro.synthesis.measurements import grid_coordinates, grid_points, synthesize_measurements
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import spawn_generators
from repro.util.tables import render_table

N_FUNCTIONS = 60


def _run(modelers, gpr, noise, seed):
    extra_errors = {name: [] for name in modelers}
    extra_errors["gpr"] = []
    inter_errors = {name: [] for name in list(modelers) + ["gpr"]}
    for gen in spawn_generators(seed, N_FUNCTIONS):
        truth = random_single_parameter_function(gen, exclude_constant=True)
        xs = random_sequence(5, None, gen)
        coords = grid_coordinates([xs])
        kernel = Kernel("k")
        kernel.add_rows(coords, synthesize_measurements(truth, coords, UniformNoise(noise), 5, gen))
        p_extra = evaluation_points([xs], 4)[3:]  # P+4 only
        mid = Coordinate(float(np.sqrt(xs[1] * xs[2])))  # in-range midpoint
        truth_extra = [float(truth.evaluate(p_extra[0].as_array()))]
        truth_mid = float(truth.evaluate(mid.as_array()))
        for name, modeler in modelers.items():
            result = modeler.model_kernel(kernel, 1, rng=gen)
            extra_errors[name].append(
                float(relative_prediction_errors(result.function, truth_extra, p_extra)[0])
            )
            pred_mid = float(result.function.evaluate(mid.as_array()))
            inter_errors[name].append(100.0 * abs(pred_mid - truth_mid) / truth_mid)
        preds = gpr.predict_at(kernel, [p_extra[0], mid])
        extra_errors["gpr"].append(100.0 * abs(preds[0] - truth_extra[0]) / truth_extra[0])
        inter_errors["gpr"].append(100.0 * abs(preds[1] - truth_mid) / truth_mid)
    return (
        {k: float(np.median(v)) for k, v in inter_errors.items()},
        {k: float(np.median(v)) for k, v in extra_errors.items()},
    )


def test_gpr_baseline(generic_network, record_table, benchmark):
    from repro.adaptive.modeler import AdaptiveModeler
    from repro.dnn.modeler import DNNModeler
    from repro.regression.modeler import RegressionModeler

    modelers = {
        "regression": RegressionModeler(),
        "adaptive": AdaptiveModeler(
            dnn=DNNModeler(network=generic_network, use_domain_adaptation=False)
        ),
    }
    gpr = GPRModeler(rng=0)
    rows = []
    results = {}
    for noise in (0.05, 0.5):
        inter, extra = _run(modelers, gpr, noise, seed=51)
        results[noise] = (inter, extra)
        for name in ("regression", "adaptive", "gpr"):
            rows.append(
                [
                    f"{noise * 100:.0f}",
                    name,
                    f"{inter[name]:.2f}",
                    f"{extra[name]:.2f}",
                ]
            )
    record_table(
        "Related-work baseline: GPR vs PMNF modelers (median rel. error %)",
        render_table(["noise %", "modeler", "interpolation", "extrapolation P+4"], rows),
    )

    _, extra_high = results[0.5]
    # The paper's claim: GPR sacrifices predictive power (extrapolation).
    assert extra_high["gpr"] > extra_high["adaptive"]
    inter_high, _ = results[0.5]
    # ... while staying usable in range even under heavy noise.
    assert inter_high["gpr"] < 60.0

    kernel = Kernel("bench")
    gen = spawn_generators(1, 1)[0]
    truth = random_single_parameter_function(gen, exclude_constant=True)
    xs = random_sequence(5, None, gen)
    points = grid_points([xs])
    kernel.add_rows(points, synthesize_measurements(truth, points, UniformNoise(0.2), 5, gen))
    benchmark(lambda: gpr.predict_at(kernel, [Coordinate(float(xs[-1] * 2))]))
