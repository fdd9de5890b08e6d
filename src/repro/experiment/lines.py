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


def _lines_for_parameter(kernel: Kernel, n_params: int, parameter: int) -> list[ParameterLine]:
    groups: dict[tuple[float, ...], list[Measurement]] = {}
    for meas in kernel.measurements:
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


def parameter_lines(
    kernel: Kernel, n_params: int, min_points: int = 5
) -> list[ParameterLine]:
    """Best measurement line per parameter.

    For each parameter the line with the most points is selected (ties go to
    the line with the smallest fixed values of the other parameters, i.e. the
    cheapest experiments). A :class:`ValueError` is raised when a parameter
    has no line with ``min_points`` points, mirroring Extra-P's requirement of
    at least five values per parameter.
    """
    result = []
    for parameter in range(n_params):
        lines = all_parameter_lines(kernel, n_params, parameter, min_points=1)
        if not lines or len(lines[0]) < min_points:
            found = len(lines[0]) if lines else 0
            raise ValueError(
                f"parameter {parameter} has only {found} measurement points along "
                f"its best line; at least {min_points} are required"
            )
        result.append(lines[0])
    return result


def line_coordinates(lines: Sequence[ParameterLine]) -> set:
    """Union of the coordinates used by a set of lines."""
    coords = set()
    for line in lines:
        coords.update(m.coordinate for m in line.measurements)
    return coords
