"""Simulated-application framework shared by the three case studies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.experiment.experiment import Experiment
from repro.experiment.measurement import Coordinate
from repro.noise.injection import NoiseModel
from repro.pmnf.function import PerformanceFunction
from repro.synthesis.measurements import grid_coordinates, synthesize_measurements
from repro.util.seeding import as_generator


@dataclass(frozen=True)
class SimulatedKernel:
    """One kernel of a simulated application.

    ``runtime_share`` approximates the kernel's fraction of total application
    runtime; the predictive-power analysis only considers *performance
    relevant* kernels -- those contributing more than one percent (Sec. VI-C).
    """

    name: str
    function: PerformanceFunction
    noise: NoiseModel
    runtime_share: float

    @property
    def performance_relevant(self) -> bool:
        return self.runtime_share > 0.01


class SimulatedApplication:
    """A synthetic stand-in for one of the paper's measured applications."""

    def __init__(
        self,
        name: str,
        parameters: Sequence[str],
        value_sets: Sequence[Sequence[float]],
        kernels: Sequence[SimulatedKernel],
        repetitions: int,
        evaluation_point: Coordinate,
        modeling_coordinates: "Callable[[Coordinate], bool] | None" = None,
        extra_coordinates: Sequence[Coordinate] = (),
    ):
        """``modeling_coordinates`` selects which grid points enter modeling
        (default: every point except the evaluation point). The campaign
        always also measures the evaluation point itself -- it is the
        reference the predictions are compared against."""
        if len(parameters) != len(value_sets):
            raise ValueError("one value set per parameter is required")
        if not kernels:
            raise ValueError("an application needs at least one kernel")
        self.name = name
        self.parameters = tuple(parameters)
        self.value_sets = [np.asarray(v, dtype=float) for v in value_sets]
        self.kernels = tuple(kernels)
        self.repetitions = int(repetitions)
        self.evaluation_point = evaluation_point
        self._modeling_filter = modeling_coordinates
        self.extra_coordinates = tuple(extra_coordinates)
        for kernel in kernels:
            if kernel.function.n_params != len(parameters):
                raise ValueError(f"kernel {kernel.name!r} has wrong arity")

    # ------------------------------------------------------------- campaign
    def campaign_coordinates(self) -> list[Coordinate]:
        coords = set(grid_coordinates(self.value_sets))
        coords.update(self.extra_coordinates)
        coords.add(self.evaluation_point)
        return sorted(coords)

    def run_campaign(self, rng=None) -> Experiment:
        """Simulate the full measurement campaign (all kernels, all points)."""
        gen = as_generator(rng)
        exp = Experiment(self.parameters)
        points = np.array([c.as_tuple() for c in self.campaign_coordinates()])
        for kernel in self.kernels:
            exp.create_kernel(kernel.name).add_rows(
                points,
                synthesize_measurements(
                    kernel.function, points, kernel.noise, self.repetitions, gen
                ),
            )
        return exp

    # ------------------------------------------------------------- modeling
    def is_modeling_coordinate(self, coordinate: Coordinate) -> bool:
        if coordinate == self.evaluation_point:
            return False
        if self._modeling_filter is not None:
            return self._modeling_filter(coordinate)
        return True

    def modeling_experiment(self, campaign: Experiment) -> Experiment:
        """Restrict a campaign to the coordinates used for model creation."""
        keep = [c for c in campaign.coordinates() if self.is_modeling_coordinate(c)]
        exp = Experiment(campaign.parameters)
        for kern in campaign.kernels:
            exp.add_kernel(kern.subset(keep))
        return exp

    def relevant_kernels(self) -> list[SimulatedKernel]:
        return [k for k in self.kernels if k.performance_relevant]

    def true_value(self, kernel_name: str, coordinate: Coordinate) -> float:
        for kernel in self.kernels:
            if kernel.name == kernel_name:
                return float(kernel.function.evaluate(coordinate.as_array()))
        raise KeyError(kernel_name)

    def __repr__(self) -> str:
        return (
            f"SimulatedApplication({self.name!r}, parameters={list(self.parameters)}, "
            f"kernels={len(self.kernels)}, repetitions={self.repetitions})"
        )
