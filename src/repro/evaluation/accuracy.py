"""Model accuracy: lead-exponent distance and accuracy buckets (Fig. 3a-c)."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.pmnf.function import PerformanceFunction
from repro.pmnf.terms import ExponentPair

#: The paper's accuracy buckets: a model counts as correct for bucket ``d``
#: when its lead-exponent distance is <= d.
ACCURACY_BUCKETS: tuple[float, ...] = (1 / 4, 1 / 3, 1 / 2)


def lead_exponent_distance(
    model: "PerformanceFunction | Sequence[ExponentPair]",
    truth: "PerformanceFunction | Sequence[ExponentPair]",
    log_weight: float = 0.0,
) -> float:
    """Distance between the lead exponents of a model and its ground truth.

    Per parameter, the distance between the two lead ``(i, j)`` pairs is
    ``|Δi| + log_weight * |Δj|``; the default compares polynomial orders
    only (see :meth:`ExponentPair.distance` and DESIGN.md). The overall
    distance is the maximum over parameters, so a model is only as correct
    as its worst parameter. Either side may also be given as its
    :meth:`~PerformanceFunction.lead_exponents` (a sweep finds a whole
    batch's leads at once).
    """
    if isinstance(model, PerformanceFunction):
        model = model.lead_exponents()
    if isinstance(truth, PerformanceFunction):
        truth = truth.lead_exponents()
    if len(model) != len(truth):
        raise ValueError(f"arity mismatch: model has {len(model)} parameters, truth {len(truth)}")
    return max(m.distance(t, log_weight) for m, t in zip(model, truth))


def bucket_fractions(
    distances: Sequence[float],
    buckets: Sequence[float] = ACCURACY_BUCKETS,
) -> Mapping[float, float]:
    """Fraction of models falling into each accuracy bucket.

    This is the "percentage of correct models" plotted in Fig. 3(a-c): one
    value per bucket, cumulative by construction (``d <= 1/4`` implies
    ``d <= 1/2``).
    """
    arr = np.asarray(distances, dtype=float)
    if arr.size == 0:
        raise ValueError("no distances given")
    return {b: float(np.mean(arr <= b + 1e-12)) for b in buckets}
