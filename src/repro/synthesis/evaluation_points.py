"""Out-of-range evaluation points ``P+`` (paper Fig. 2).

Predictive power is measured at four points beyond the modeled range,
obtained by continuing every parameter's value sequence simultaneously:
``P+_k`` has each parameter at the ``k``-th continuation value, so ``P+_4``
is the farthest extrapolation (diagonally, in all parameters at once).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiment.measurement import Coordinate
from repro.synthesis.sequences import continue_sequence


def evaluation_grid(parameter_values: Sequence[np.ndarray], count: int = 4) -> np.ndarray:
    """The ``count`` diagonal continuation points of a measurement grid as
    one ``(count, m)`` array, row ``k`` being ``P+_{k+1}``; refuses a point
    that is not positive and finite, as a :class:`Coordinate` would."""
    points = np.stack(
        [continue_sequence(np.asarray(v, dtype=float), count) for v in parameter_values], axis=1
    )
    if not (np.isfinite(points).all() and (points > 0).all()):
        raise ValueError(f"parameter values must be positive and finite, got {points.tolist()}")
    return points


def evaluation_points(
    parameter_values: Sequence[np.ndarray], count: int = 4
) -> list[Coordinate]:
    """The ``count`` diagonal continuation points of a measurement grid."""
    return [Coordinate(*point) for point in evaluation_grid(parameter_values, count)]
