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
        # Exact 0.0 guard against the division below; only a bitwise-zero mean
        # divides by zero, and near-zero means must still produce the true
        # (large) deviations.
        if mean == 0.0:
            return np.zeros_like(self.values)
        return (self.values - mean) / mean

    def __repr__(self) -> str:
        return f"Measurement({self.coordinate!r}, median={self.median:.6g}, rep={self.repetitions})"


def _view(cls, **slots):
    """A ``cls`` instance over already validated slot values, unchecked."""
    view = object.__new__(cls)
    for name, value in slots.items():
        setattr(view, name, value)
    return view


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: Row-wise reductions of a ``(k, r)`` repetition array; each row's value is
#: bitwise the one :meth:`Measurement.aggregate` gives for that row alone.
_REDUCERS = {"median": np.median, "mean": np.mean, "min": np.min}


class MeasurementTable:
    """An immutable set of measurements held as arrays.

    ``points`` is an ``(n, m)`` float array of distinct coordinates in
    lexicographic order -- the order of ``sorted(Coordinate)``. ``groups``
    holds the repetitions: one ``(rows, values)`` pair per repetition count
    ``r``, in order of first appearance, where ``values`` is ``(k, r)`` and
    ``values[i]`` are the repetitions at ``points[rows[i]]``. Every array is
    read-only.

    Aggregates and :class:`Measurement` views are memoized on the table, so
    they live exactly as long as the data they were derived from.
    """

    __slots__ = ("points", "groups", "_memo")

    def __init__(self, points: np.ndarray, groups: "tuple[tuple[np.ndarray, np.ndarray], ...]"):
        self.points = points
        self.groups = groups
        self._memo: dict = {}

    @classmethod
    def build(cls, blocks: "Sequence[tuple[np.ndarray, np.ndarray]]") -> "MeasurementTable":
        """Table of validated ``(points (k, m), values (k, r))`` blocks.

        Rows are sorted lexicographically; rows at one coordinate merge
        their repetitions in block order, earlier blocks first.
        """
        if not blocks:
            return cls(_frozen(np.empty((0, 0))), ())
        points = np.concatenate([p for p, _ in blocks])
        # lexsort is stable: rows at one coordinate keep their block order.
        order = np.lexsort(points.T[::-1])
        points = points[order]
        repeated = (points[1:] == points[:-1]).all(axis=1)
        if not repeated.any() and len({v.shape[1] for _, v in blocks}) == 1:
            values = np.concatenate([v for _, v in blocks])[order]
            return cls(_frozen(points), ((_frozen(np.arange(len(points))), _frozen(values)),))
        # Repeated coordinates or mixed repetition counts: one row at a time.
        flat = [row for _, values in blocks for row in values]
        rows = [flat[i] for i in order.tolist()]
        if repeated.any():
            starts = np.flatnonzero(np.concatenate(([True], ~repeated))).tolist()
            rows = [np.concatenate(rows[a:b]) for a, b in zip(starts, [*starts[1:], len(rows)])]
            points = points[starts]
        by_count: "dict[int, list[int]]" = {}
        for index, row in enumerate(rows):
            by_count.setdefault(row.size, []).append(index)
        groups = tuple(
            (_frozen(np.array(indices)), _frozen(np.stack([rows[i] for i in indices])))
            for indices in by_count.values()
        )
        return cls(_frozen(points), groups)

    def blocks(self) -> "list[tuple[np.ndarray, np.ndarray]]":
        """The table as :meth:`build` input, one block per repetition count."""
        return [(self.points[rows], values) for rows, values in self.groups]

    def __len__(self) -> int:
        return len(self.points)

    def __reduce__(self):
        # Pickle the arrays, not the memo; unpickling rebuilds them read-only.
        return (MeasurementTable.build, (self.blocks(),))

    def _derive(self, key, build):
        """``build()``, computed once per ``key`` for this table."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def aggregate(self, aggregation: str = "median") -> np.ndarray:
        """:meth:`Measurement.aggregate` of every point, as one read-only vector.

        One row-wise reduction per repetition count; each value is bitwise
        the per-measurement one.
        """
        reduce = _REDUCERS.get(aggregation)
        if reduce is None:
            raise ValueError(f"unknown aggregation {aggregation!r} (median/mean/min)")

        def build() -> np.ndarray:
            out = np.empty(len(self.points))
            for rows, values in self.groups:
                out[rows] = reduce(values, axis=1)
            return _frozen(out)

        return self._derive(("aggregate", aggregation), build)

    def measurements(self) -> "tuple[Measurement, ...]":
        """One read-only :class:`Measurement` view per point, in row order."""

        def build() -> "tuple[Measurement, ...]":
            coordinates = [_view(Coordinate, _values=tuple(row)) for row in self.points.tolist()]
            views: "list[Measurement | None]" = [None] * len(coordinates)
            for rows, values in self.groups:
                for row, repetitions in zip(rows.tolist(), values):
                    views[row] = _view(Measurement, coordinate=coordinates[row], values=repetitions)
            return tuple(views)

        return self._derive("measurements", build)


def value_table(kernel, aggregation: str = "median") -> tuple[np.ndarray, np.ndarray]:
    """A kernel's point matrix ``(n, m)`` and aggregated value vector ``(n,)``.

    Both are read-only arrays of the kernel's :class:`MeasurementTable`.
    """
    table = kernel.table
    if not len(table):
        raise ValueError(f"kernel {kernel.name!r} has no measurements")
    return table.points, table.aggregate(aggregation)


def median_table(kernel) -> tuple[np.ndarray, np.ndarray]:
    """Shorthand for :func:`value_table` with the paper's median aggregation."""
    return value_table(kernel, "median")
