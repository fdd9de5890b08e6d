"""Robust pre-filtering of repetitions before aggregation.

Tainted measurement sets (Copik et al., "Extracting Clean Performance
Models from Tainted Programs") contain repetitions that carry no
information about the true runtime -- a co-running job, an OS hiccup, a
dropped timer. Any non-robust aggregate is pulled arbitrarily far away by
a single such repetition; even the median degrades once the contamination
probability grows. This module provides pluggable
:class:`RobustAggregator` strategies that run *inside* the pipeline's
aggregate stage, replacing the plain per-point
:meth:`~repro.experiment.measurement.Measurement.aggregate` call:

``median``
    Median of the repetitions, whatever the pipeline's aggregation kind.
    Drops nothing; the classic 50 %-breakdown-point fallback.
``trimmed(proportion=0.1)``
    Symmetrically trims the smallest/largest repetitions and takes the
    mean of the rest (drops ``floor(n * proportion)`` per tail).
``mad(k=3.0)``
    MAD-based outlier rejection: drops repetitions farther than
    ``k * 1.4826 * MAD`` from the per-point median, then applies the
    pipeline's configured aggregation to the survivors. Records *which*
    repetitions were dropped. On noise-free data the MAD is zero and the
    strict inequality drops nothing, so the stage is a guaranteed no-op
    and the pipeline output stays bit-identical to the unfiltered path.
    Under benign noise with few repetitions the *sample* MAD is itself a
    noisy estimate, so occasional false drops are expected (e.g. five
    uniform repetitions where three happen to cluster tightly) -- raise
    ``k`` or use more repetitions when that matters.

Specs follow the grammar of :mod:`repro.util.spec`, and modeler specs
embed prefilters as nested calls: ``dnn(top_k=5, prefilter=mad(k=3))``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.experiment.experiment import Kernel
from repro.util.spec import SpecRegistry
from repro.util.validation import require_in_range

#: Consistency constant making ``1.4826 * MAD`` estimate a Gaussian sigma.
MAD_SCALE = 1.4826

#: Reducers matching Measurement.aggregate so a no-op filter stays
#: bit-identical to the unfiltered value_table path.
_REDUCERS: "dict[str, Callable[[np.ndarray], float]]" = {
    "median": lambda kept: float(np.median(kept)),
    "mean": lambda kept: float(np.mean(kept)),
    "min": lambda kept: float(np.min(kept)),
}


class RobustAggregator(abc.ABC):
    """Strategy replacing the plain per-point aggregation of repetitions."""

    @abc.abstractmethod
    def kept_mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of the repetitions that survive the filter."""

    def reduce(self, kept: np.ndarray, aggregation: str) -> float:
        """Aggregate the surviving repetitions (default: pipeline's kind)."""
        try:
            reducer = _REDUCERS[aggregation]
        except KeyError:
            raise ValueError(
                f"unknown aggregation {aggregation!r} (median/mean/min)"
            ) from None
        return reducer(kept)

    def aggregate(self, values: np.ndarray, aggregation: str) -> "tuple[float, np.ndarray]":
        """Filter then reduce one point's repetitions; returns (value, kept mask)."""
        values = np.asarray(values, dtype=float)
        mask = self.kept_mask(values)
        if not mask.any():  # never drop everything: fall back to keeping all
            mask = np.ones_like(mask)
        return self.reduce(values[mask], aggregation), mask


class MedianOfRepetitions(RobustAggregator):
    """Median of the repetitions regardless of the pipeline aggregation."""

    def kept_mask(self, values: np.ndarray) -> np.ndarray:
        return np.ones(values.shape, dtype=bool)

    def reduce(self, kept: np.ndarray, aggregation: str) -> float:
        return float(np.median(kept))

    def __repr__(self) -> str:
        return "MedianOfRepetitions()"


class TrimmedMean(RobustAggregator):
    """Symmetric trimmed mean: drop ``floor(n * proportion)`` per tail.

    The kept mask drops the most extreme repetitions by rank (ties broken
    by position, via stable argsort), so the bookkeeping shows exactly
    which runs were discarded.
    """

    def __init__(self, proportion: float = 0.1):
        self.proportion = require_in_range("proportion", proportion, 0.0, 0.5)

    def kept_mask(self, values: np.ndarray) -> np.ndarray:
        n = values.size
        cut = int(n * self.proportion)
        mask = np.ones(n, dtype=bool)
        if cut:
            order = np.argsort(values, kind="stable")
            mask[order[:cut]] = False
            mask[order[n - cut :]] = False
        return mask

    def reduce(self, kept: np.ndarray, aggregation: str) -> float:
        return float(np.mean(kept))

    def __repr__(self) -> str:
        return f"TrimmedMean(proportion={self.proportion!r})"


class MADOutlierRejection(RobustAggregator):
    """Drop repetitions beyond ``k * 1.4826 * MAD`` of the per-point median.

    With ``MAD == 0`` (identical repetitions, e.g. noise-free synthetic
    data) the strict inequality drops nothing, so clean data passes
    through bit-identically. The survivors are reduced with the
    pipeline's configured aggregation, again matching the unfiltered path
    exactly when nothing is dropped.
    """

    def __init__(self, k: float = 3.0):
        self.k = require_in_range("k", k, 0.0, 100.0)

    def kept_mask(self, values: np.ndarray) -> np.ndarray:
        median = np.median(values)
        deviations = np.abs(values - median)
        mad = np.median(deviations)
        return ~(deviations > self.k * MAD_SCALE * mad)

    def __repr__(self) -> str:
        return f"MADOutlierRejection(k={self.k!r})"


@dataclass(frozen=True)
class PrefilterReport:
    """Per-point bookkeeping of what the pre-filter discarded."""

    #: Number of repetitions dropped at each measurement point.
    dropped_per_point: "tuple[int, ...]"
    #: Boolean kept-masks, one per measurement point (for tests/debugging).
    kept_masks: "tuple[np.ndarray, ...]"

    @property
    def dropped_total(self) -> int:
        return int(sum(self.dropped_per_point))


def apply_prefilter(
    kernel: Kernel,
    prefilter: RobustAggregator,
    aggregation: str = "median",
) -> "tuple[np.ndarray, np.ndarray, PrefilterReport]":
    """Robust counterpart of :func:`repro.experiment.measurement.value_table`.

    Returns the kernel's ``(n, m)`` point matrix, the ``(n,)``
    filtered-aggregate vector, and a :class:`PrefilterReport` recording
    which repetitions each point lost.
    """
    table = kernel.table
    if not len(table):
        raise ValueError(f"kernel {kernel.name!r} has no measurements")
    values = np.empty(len(table), dtype=float)
    dropped = [0] * len(table)
    masks: "list[np.ndarray | None]" = [None] * len(table)
    for rows, repetitions in table.groups:
        for row, point_values in zip(rows.tolist(), repetitions):
            values[row], mask = prefilter.aggregate(point_values, aggregation)
            dropped[row] = int(mask.size - mask.sum())
            masks[row] = mask
    return table.points, values, PrefilterReport(tuple(dropped), tuple(masks))


# ------------------------------------------------------------------ registry
PREFILTERS = SpecRegistry("prefilter", builds=RobustAggregator)

register_prefilter = PREFILTERS.register
available_prefilters = PREFILTERS.available
validate_prefilter_spec = PREFILTERS.validate

register_prefilter("median", MedianOfRepetitions)
register_prefilter("trimmed", TrimmedMean)
register_prefilter("mad", MADOutlierRejection)


def create_prefilter(spec: "str | RobustAggregator | None") -> "RobustAggregator | None":
    """Build a prefilter from a spec string (``"mad(k=3)"``), pass through
    built instances and ``None``."""
    return None if spec is None else PREFILTERS.create(spec)
