"""Coordinates (measurement points) and repeated measurements."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


class Coordinate:
    """An immutable measurement point ``P(x_1, ..., x_m)``.

    Coordinates are hashable and compare by value, so they can key the
    measurement tables of an experiment.
    """

    __slots__ = ("_values",)

    def __init__(self, *values: float):
        if len(values) == 1 and isinstance(values[0], (tuple, list, np.ndarray)):
            values = tuple(values[0])
        if not values:
            raise ValueError("a coordinate needs at least one parameter value")
        vals = tuple(float(v) for v in values)
        if any(not np.isfinite(v) or v <= 0 for v in vals):
            raise ValueError(f"parameter values must be positive and finite, got {vals}")
        self._values = vals

    @property
    def dimensions(self) -> int:
        return len(self._values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def as_tuple(self) -> tuple[float, ...]:
        return self._values

    def replace(self, index: int, value: float) -> "Coordinate":
        """Return a copy with parameter ``index`` set to ``value``."""
        vals = list(self._values)
        vals[index] = value
        return Coordinate(*vals)

    def __getitem__(self, index: int) -> float:
        return self._values[index]

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coordinate) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __lt__(self, other: "Coordinate") -> bool:
        return self._values < other._values

    def __repr__(self) -> str:
        return f"Coordinate{self._values}"


class Measurement:
    """Repeated measurements of one metric at one coordinate.

    The paper repeats each experiment up to five times and models the median
    of the repetitions; the raw repetitions stay available because the noise
    estimator (Eqs. 3-4) needs them.
    """

    __slots__ = ("coordinate", "values")

    def __init__(self, coordinate: Coordinate, values: Iterable[float]):
        self.coordinate = coordinate
        vals = np.asarray(list(values), dtype=float)
        if vals.size == 0:
            raise ValueError("a measurement needs at least one repetition")
        if not np.all(np.isfinite(vals)):
            raise ValueError("measurement values must be finite")
        self.values = vals

    @property
    def repetitions(self) -> int:
        return int(self.values.size)

    @property
    def median(self) -> float:
        return float(np.median(self.values))

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def minimum(self) -> float:
        return float(np.min(self.values))

    @property
    def maximum(self) -> float:
        return float(np.max(self.values))

    def aggregate(self, kind: str = "median") -> float:
        """Representative value of the repetitions.

        Extra-P models one value per point; which statistic to use is a
        classic noise countermeasure choice (Sec. II): ``median`` (the
        paper's default), ``mean``, or ``min`` (the 'no interference ever
        speeds a run up' argument).
        """
        if kind == "median":
            return self.median
        if kind == "mean":
            return self.mean
        if kind == "min":
            return self.minimum
        raise ValueError(f"unknown aggregation {kind!r} (median/mean/min)")

    def relative_deviations(self) -> np.ndarray:
        """Per-repetition relative deviation from the sample mean (Eq. 3)."""
        mean = self.mean
        # repro-lint: disable-next-line=FLT001 -- exact 0.0 guard against the
        # division below; only a bitwise-zero mean divides by zero, and
        # near-zero means must still produce the true (large) deviations.
        if mean == 0.0:
            return np.zeros_like(self.values)
        return (self.values - mean) / mean

    def __repr__(self) -> str:
        return f"Measurement({self.coordinate!r}, median={self.median:.6g}, rep={self.repetitions})"


def aggregate_values(
    measurements: Sequence[Measurement], aggregation: str = "median"
) -> np.ndarray:
    """:meth:`Measurement.aggregate` of every measurement, as one vector.

    Medians are taken in one ``np.median`` call per repetition count over
    the stacked repetitions; the values are bitwise those of the
    per-measurement :attr:`Measurement.median`.
    """
    if aggregation != "median":
        return np.asarray([m.aggregate(aggregation) for m in measurements], dtype=float)
    out = np.empty(len(measurements))
    for rows, stacked in stacked_by_repetitions(measurements):
        out[rows] = np.median(stacked, axis=-1)
    return out


def stacked_by_repetitions(
    measurements: Sequence[Measurement],
) -> list[tuple[list[int], np.ndarray]]:
    """Repetition values stacked per repetition count.

    One ``(rows, stacked)`` pair per distinct count, in order of first
    appearance: ``stacked[i]`` holds the values of ``measurements[rows[i]]``.
    Row-wise reductions over ``stacked`` are bitwise those of the
    individual measurements.
    """
    rows_by_count: dict[int, list[int]] = {}
    for row, meas in enumerate(measurements):
        rows_by_count.setdefault(meas.values.size, []).append(row)
    return [
        (rows, np.stack([measurements[row].values for row in rows]))
        for rows in rows_by_count.values()
    ]


def value_table(
    measurements: Sequence[Measurement], aggregation: str = "median"
) -> tuple[np.ndarray, np.ndarray]:
    """Split measurements into a point matrix ``(n, m)`` and a value vector ``(n,)``."""
    if not measurements:
        raise ValueError("no measurements given")
    points = np.array([m.coordinate.as_tuple() for m in measurements], dtype=float)
    return points, aggregate_values(measurements, aggregation)


def median_table(measurements: Sequence[Measurement]) -> tuple[np.ndarray, np.ndarray]:
    """Shorthand for :func:`value_table` with the paper's median aggregation."""
    return value_table(measurements, "median")
