"""Simulated measurement campaigns: evaluate a ground truth, add noise, repeat."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiment.experiment import Experiment
from repro.experiment.measurement import Coordinate
from repro.noise.injection import NoiseModel, NoNoise
from repro.pmnf.function import PerformanceFunction
from repro.util.seeding import as_generator


def grid_points(parameter_values: Sequence[np.ndarray]) -> np.ndarray:
    """Full cartesian grid (the ``5^m`` points of Sec. V) as an ``(n, m)`` array.

    Rows are in ``meshgrid`` ``ij`` order: the last parameter varies fastest.
    """
    if not parameter_values:
        raise ValueError("need at least one parameter-value set")
    mesh = np.meshgrid(*[np.asarray(v, dtype=float) for v in parameter_values], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_coordinates(parameter_values: Sequence[np.ndarray]) -> list[Coordinate]:
    """:func:`grid_points` as coordinates."""
    return [Coordinate(*row) for row in grid_points(parameter_values)]


def cross_coordinates(
    parameter_values: Sequence[np.ndarray], include_interaction_point: bool = True
) -> list[Coordinate]:
    """Sparse cross layout: one line per parameter plus one off-line point.

    Instead of the full ``5^m`` grid, measure a line of points per parameter
    (the other parameters anchored at their smallest values) -- the
    cost-effective design of the paper's predecessor (Ritter et al. 2020)
    and the layout of the FASTEST/RELeARN campaigns. Extra-P additionally
    requires "at least one additional experiment with a measurement point
    outside these sequences" to distinguish additive from multiplicative
    parameter interaction; ``include_interaction_point`` adds the point with
    every parameter at its second value. For ``m = 1`` this is simply the
    line itself.
    """
    sets = [np.sort(np.asarray(v, dtype=float)) for v in parameter_values]
    if not sets:
        raise ValueError("need at least one parameter-value set")
    anchors = [float(v[0]) for v in sets]
    coords: set[Coordinate] = set()
    for l, values in enumerate(sets):
        for x in values:
            point = list(anchors)
            point[l] = float(x)
            coords.add(Coordinate(*point))
    if include_interaction_point and len(sets) > 1:
        if any(v.size < 2 for v in sets):
            raise ValueError("interaction point requires two values per parameter")
        coords.add(Coordinate(*[float(v[1]) for v in sets]))
    return sorted(coords)


def synthesize_measurements(
    function: PerformanceFunction,
    points,
    noise: "NoiseModel | None" = None,
    repetitions: int = 5,
    rng: "np.random.Generator | int | None" = None,
) -> np.ndarray:
    """Simulate repeated noisy measurements of ``function`` at ``points``.

    Mirrors the paper's protocol: the true value at each point is perturbed
    independently for each of the ``repetitions`` runs; downstream modeling
    uses the median of the repetitions. ``points`` is ``(n, m)`` (an array
    or a sequence of coordinates); the result is ``(n, repetitions)``, row
    ``i`` holding the repetitions at ``points[i]`` -- ready for
    :meth:`~repro.experiment.experiment.Kernel.add_rows`. The truth is one
    ``function.evaluate`` call and the noise one
    :meth:`~repro.noise.injection.NoiseModel.apply_rows` draw, which
    consumes ``rng`` point by point in row order.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    gen = as_generator(rng)
    noise = noise or NoNoise()
    truth = np.atleast_1d(function.evaluate(np.asarray(points, dtype=float)))
    return noise.apply_rows(np.repeat(truth[:, None], repetitions, axis=1), gen)


def synthesize_experiment(
    function: PerformanceFunction,
    parameter_values: Sequence[np.ndarray],
    noise: "NoiseModel | None" = None,
    repetitions: int = 5,
    rng: "np.random.Generator | int | None" = None,
    parameter_names: "Sequence[str] | None" = None,
    kernel: str = "synthetic",
) -> Experiment:
    """Build a complete synthetic experiment on the full parameter grid."""
    names = list(parameter_names or [f"x{l + 1}" for l in range(function.n_params)])
    if len(names) != function.n_params or len(parameter_values) != function.n_params:
        raise ValueError("parameter arity mismatch")
    exp = Experiment(names)
    points = grid_points(parameter_values)
    exp.create_kernel(kernel).add_rows(
        points, synthesize_measurements(function, points, noise, repetitions, rng)
    )
    return exp
