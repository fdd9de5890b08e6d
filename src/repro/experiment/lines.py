"""Per-parameter measurement-line extraction.

Both modelers build multi-parameter models by first modeling each parameter
in isolation (paper Sec. IV-D). That requires, for every parameter, a *line*
of measurement points along which only that parameter varies while all
others stay fixed -- exactly the experiment layout of Fig. 2. This module
finds those lines in an arbitrary set of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.experiment.experiment import Kernel
from repro.experiment.measurement import Measurement, aggregate_values


@dataclass(frozen=True)
class ParameterLine:
    """Measurements along which only parameter ``parameter`` varies."""

    parameter: int
    fixed: tuple[float, ...]  # values of the other parameters, in index order
    measurements: tuple[Measurement, ...]

    @property
    def xs(self) -> np.ndarray:
        """Sorted values of the varying parameter."""
        return np.asarray([m.coordinate[self.parameter] for m in self.measurements])

    @property
    def medians(self) -> np.ndarray:
        return self.values("median")

    def values(self, aggregation: str = "median") -> np.ndarray:
        """Representative values under the chosen aggregation strategy."""
        return aggregate_values(self.measurements, aggregation)

    def __len__(self) -> int:
        return len(self.measurements)


def _checked_measurements(kernel: Kernel, n_params: int) -> list[Measurement]:
    """The kernel's measurements, refused when a coordinate is too short.

    Every line builder indexes the first ``n_params`` coordinate values;
    a coordinate with fewer would otherwise fail deep inside as a bare
    ``IndexError``.
    """
    measurements = kernel.measurements
    if measurements:
        dimensions = min(m.coordinate.dimensions for m in measurements)
        if dimensions < n_params:
            raise ValueError(
                f"kernel {kernel.name!r} has {dimensions}-dimensional coordinates, "
                f"too few for n_params={n_params}"
            )
    return measurements


def _lines_for_parameter(kernel: Kernel, n_params: int, parameter: int) -> list[ParameterLine]:
    groups: dict[tuple[float, ...], list[Measurement]] = {}
    for meas in _checked_measurements(kernel, n_params):
        key = tuple(
            meas.coordinate[l] for l in range(n_params) if l != parameter
        )
        groups.setdefault(key, []).append(meas)
    lines = []
    for key, members in groups.items():
        members.sort(key=lambda m: m.coordinate[parameter])
        lines.append(ParameterLine(parameter, key, tuple(members)))
    return lines


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
    measurements = _checked_measurements(kernel, n_params)
    if not measurements:
        return ()
    if n_params == 1:
        # Kernels keep coordinates sorted, so by their first value too.
        return (ParameterLine(0, (), tuple(measurements)),)
    n_points = len(measurements)
    points = np.array(
        [m.coordinate.as_tuple()[:n_params] for m in measurements], dtype=float
    )
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
        members = members[np.argsort(points[members, parameter], kind="stable")]
        first = measurements[members[0]].coordinate
        fixed = tuple(first[l] for l in range(n_params) if l != parameter)
        line = tuple(measurements[row] for row in members)
        best.append(ParameterLine(parameter, fixed, line))
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

    The lines are built once per kernel and ``n_params`` and memoized on the
    kernel until its next :meth:`~repro.experiment.experiment.Kernel.add`,
    so the modelers and the DNN encoder of one task share them.
    """
    lines = kernel._lines.get(n_params)
    if lines is None:
        lines = kernel._lines[n_params] = _best_lines(kernel, n_params)
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
    coords = set()
    for line in lines:
        coords.update(m.coordinate for m in line.measurements)
    return coords
