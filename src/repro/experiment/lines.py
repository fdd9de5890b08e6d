"""Per-parameter measurement-line extraction.

Both modelers build multi-parameter models by first modeling each parameter
in isolation (paper Sec. IV-D). That requires, for every parameter, a *line*
of measurement points along which only that parameter varies while all
others stay fixed -- exactly the experiment layout of Fig. 2. This module
finds those lines in an arbitrary set of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.experiment.experiment import Kernel
from repro.experiment.measurement import Coordinate, Measurement, MeasurementTable


@dataclass(frozen=True, eq=False)
class ParameterLine:
    """Points of one kernel along which only parameter ``parameter`` varies.

    ``rows`` index the points of the kernel's :class:`MeasurementTable` at
    the time the line was found, in increasing order of the varying
    parameter; a later add to the kernel builds a new table and leaves the
    line as it was.
    """

    parameter: int
    fixed: tuple[float, ...]  # values of the other parameters, in index order
    table: MeasurementTable = field(repr=False)
    rows: np.ndarray = field(repr=False)

    @property
    def xs(self) -> np.ndarray:
        """Sorted values of the varying parameter."""
        return self.table.points[self.rows, self.parameter]

    @property
    def medians(self) -> np.ndarray:
        return self.values("median")

    def values(self, aggregation: str = "median") -> np.ndarray:
        """Representative values under the chosen aggregation strategy."""
        return self.table.aggregate(aggregation)[self.rows]

    @property
    def measurements(self) -> "tuple[Measurement, ...]":
        """The line's points as :class:`Measurement` views."""
        views = self.table.measurements()
        return tuple(views[row] for row in self.rows.tolist())

    def __len__(self) -> int:
        return len(self.rows)


def _checked_table(kernel: Kernel, n_params: int) -> MeasurementTable:
    """The kernel's table, refused when its coordinates are too short.

    Every line builder indexes the first ``n_params`` coordinate values;
    a coordinate with fewer would otherwise fail deep inside as a bare
    ``IndexError``.
    """
    table = kernel.table
    dimensions = table.points.shape[1]
    if len(table) and dimensions < n_params:
        raise ValueError(
            f"kernel {kernel.name!r} has {dimensions}-dimensional coordinates, "
            f"too few for n_params={n_params}"
        )
    return table


def _line(table: MeasurementTable, parameter: int, members: np.ndarray, others: list) -> ParameterLine:
    """The line through ``members`` (table rows), sorted by the varying parameter."""
    members = members[np.argsort(table.points[members, parameter], kind="stable")]
    fixed = tuple(table.points[members[0], others].tolist())
    return ParameterLine(parameter, fixed, table, members)


def _lines_for_parameter(kernel: Kernel, n_params: int, parameter: int) -> list[ParameterLine]:
    table = _checked_table(kernel, n_params)
    others = [l for l in range(n_params) if l != parameter]
    groups: dict[tuple[float, ...], list[int]] = {}
    for row, key in enumerate(table.points[:, others].tolist()):
        groups.setdefault(tuple(key), []).append(row)
    return [_line(table, parameter, np.array(rows), others) for rows in groups.values()]


def all_parameter_lines(
    kernel: Kernel, n_params: int, parameter: int, min_points: int = 2
) -> list[ParameterLine]:
    """All lines for one parameter with at least ``min_points`` points."""
    lines = [l for l in _lines_for_parameter(kernel, n_params, parameter) if len(l) >= min_points]
    lines.sort(key=lambda l: (-len(l), l.fixed))
    return lines


def _best_lines(kernel: Kernel, n_params: int) -> tuple[ParameterLine, ...]:
    """Each parameter's longest line, ties to the smallest ``fixed`` tuple.

    Points are grouped by integer codes instead of float tuples: each
    column's values are ranked (``np.unique``), and a point's group for
    parameter ``p`` is the mixed-radix number of its ranks in the other
    columns, in index order. Ranks preserve value order, so the lowest
    code of the most populous group is the line ``all_parameter_lines``
    sorts first.
    """
    table = _checked_table(kernel, n_params)
    n_points = len(table)
    if not n_points:
        return ()
    if n_params == 1:
        # Table rows are sorted, so by their first value too.
        return (ParameterLine(0, (), table, np.arange(n_points)),)
    points = table.points[:, :n_params]
    ranked = [np.unique(column, return_inverse=True) for column in points.T]
    best = []
    for parameter in range(n_params):
        code = np.zeros(n_points, dtype=np.int64)
        radix = 1
        for l, (uniques, ranks) in enumerate(ranked):
            if l == parameter:
                continue
            code = code * len(uniques) + ranks
            radix *= len(uniques)
            if radix > n_points:
                # Re-rank to keep codes below n_points**2; order is kept.
                groups, code = np.unique(code, return_inverse=True)
                radix = len(groups)
        members = np.flatnonzero(code == np.argmax(np.bincount(code)))
        others = [l for l in range(n_params) if l != parameter]
        best.append(_line(table, parameter, members, others))
    return tuple(best)


def parameter_lines(
    kernel: Kernel, n_params: int, min_points: int = 5
) -> list[ParameterLine]:
    """Best measurement line per parameter.

    For each parameter the line with the most points is selected (ties go to
    the line with the smallest fixed values of the other parameters, i.e. the
    cheapest experiments). A :class:`ValueError` is raised when a parameter
    has no line with ``min_points`` points, mirroring Extra-P's requirement of
    at least five values per parameter.

    The lines are built once per ``n_params`` and memoized on the kernel
    until its next add, so the modelers and the DNN encoder of one task
    share them.
    """
    lines = kernel.memo(("lines", n_params), lambda: _best_lines(kernel, n_params))
    for parameter in range(n_params):
        found = len(lines[parameter]) if lines else 0
        if not lines or found < min_points:
            raise ValueError(
                f"parameter {parameter} has only {found} measurement points along "
                f"its best line; at least {min_points} are required"
            )
    return list(lines)


def line_coordinates(lines: Sequence[ParameterLine]) -> set:
    """Union of the coordinates used by a set of lines."""
    return {Coordinate(*line.table.points[row]) for line in lines for row in line.rows}
