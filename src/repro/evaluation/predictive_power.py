"""Predictive power: extrapolation error at the evaluation points (Fig. 3d-f)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiment.measurement import Coordinate
from repro.pmnf.function import PerformanceFunction


def _predicted_and_reference(
    model: "PerformanceFunction | np.ndarray",
    truth: "PerformanceFunction | Sequence[float]",
    points: Sequence[Coordinate],
) -> "tuple[np.ndarray, np.ndarray]":
    """``model`` and ``truth`` at ``points``: a function is evaluated on the
    stacked points, and anything else is taken as its values there."""
    if len(points) == 0:
        raise ValueError("no evaluation points given")
    if isinstance(model, PerformanceFunction) or isinstance(truth, PerformanceFunction):
        pts = np.stack([p.as_array() for p in points])
    if isinstance(model, PerformanceFunction):
        predicted = np.atleast_1d(model.evaluate(pts))
    else:
        predicted = np.atleast_1d(np.asarray(model, dtype=float))
    if isinstance(truth, PerformanceFunction):
        reference = np.atleast_1d(truth.evaluate(pts))
    else:
        reference = np.asarray(truth, dtype=float)
    if reference.shape != predicted.shape:
        raise ValueError("one reference value per evaluation point is required")
    return predicted, reference


def relative_prediction_errors(
    model: "PerformanceFunction | np.ndarray",
    truth: "PerformanceFunction | Sequence[float]",
    points: Sequence[Coordinate],
) -> np.ndarray:
    """Percentage errors ``100 * |f̂(P) - f(P)| / |f(P)|`` at each point.

    ``truth`` may be the ground-truth function (synthetic evaluation) or the
    already-known reference values at the points (case studies, where the
    reference is the measured value at the hold-out configuration).
    ``model`` may likewise be a ready vector of predictions. A sweep
    passes a whole batch: ``(K, n)`` predictions and reference values, one
    row per function, with ``points`` their ``(K, n, m)`` points; every
    operation is elementwise, so each row is what that function alone
    gives.
    """
    predicted, reference = _predicted_and_reference(model, truth, points)
    if np.any(reference == 0):
        raise ValueError("reference values must be non-zero")
    return 100.0 * np.abs(predicted - reference) / np.abs(reference)


def prediction_smape(
    model: "PerformanceFunction | np.ndarray",
    truth: "PerformanceFunction | Sequence[float]",
    points: Sequence[Coordinate],
) -> np.ndarray:
    """SMAPE ``200 * |f̂(P) - f(P)| / (|f̂(P)| + |f(P)|)`` at each point.

    The bounded companion of :func:`relative_prediction_errors` (range
    ``[0, 200]``), used by the degradation sweeps: under contamination a
    modeler can be wrong by orders of magnitude, and unbounded relative
    errors let a single blow-up dominate any mean while SMAPE saturates --
    the same reason the pipeline's model selection uses SMAPE. ``model``
    may also be a ready vector of predictions (predictor-only baselines
    such as GPR), or a batch of them as for
    :func:`relative_prediction_errors`.
    """
    predicted, reference = _predicted_and_reference(model, truth, points)
    denominator = np.abs(predicted) + np.abs(reference)
    with np.errstate(invalid="ignore", divide="ignore"):
        smape = 200.0 * np.abs(predicted - reference) / denominator
    return np.where(denominator > 0, smape, 0.0)


def median_errors(error_matrix: np.ndarray) -> np.ndarray:
    """Median over functions of the per-point errors.

    ``error_matrix`` has shape ``(n_functions, n_points)``; the result is the
    per-evaluation-point median plotted as one bar group in Fig. 3(d-f).
    """
    matrix = np.asarray(error_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("error matrix must be 2-d and non-empty")
    # NaN rows mark failed modeling attempts; they are excluded from the
    # median but still counted by the sweep's failure statistics.
    with np.errstate(all="ignore"):
        return np.nanmedian(matrix, axis=0)
