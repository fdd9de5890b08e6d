"""The experiment container consumed by all modelers."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.experiment.measurement import Coordinate, Measurement


class Kernel:
    """Measurements of one kernel (call path) for one metric.

    Kernels are what Extra-P models individually: the paper creates one
    performance model per application kernel, not per application.
    """

    def __init__(self, name: str, metric: str = "time"):
        self.name = name
        self.metric = metric
        self._measurements: dict[Coordinate, Measurement] = {}
        # Sorted coordinates, rebuilt on the first access after an add.
        self._order: "list[Coordinate] | None" = None

    # ----------------------------------------------------------------- build
    def add(self, measurement: Measurement) -> None:
        """Add a measurement; repeated adds at one coordinate merge repetitions."""
        self._order = None
        existing = self._measurements.get(measurement.coordinate)
        if existing is None:
            self._measurements[measurement.coordinate] = measurement
        else:
            merged = np.concatenate([existing.values, measurement.values])
            self._measurements[measurement.coordinate] = Measurement(
                measurement.coordinate, merged
            )

    def add_values(self, coordinate: "Coordinate | Sequence[float]", values: Iterable[float]) -> None:
        if not isinstance(coordinate, Coordinate):
            coordinate = Coordinate(*coordinate)
        self.add(Measurement(coordinate, values))

    # ---------------------------------------------------------------- access
    def _sorted(self) -> list[Coordinate]:
        order = self._order
        if order is None:
            order = self._order = sorted(self._measurements)
        return order

    @property
    def coordinates(self) -> list[Coordinate]:
        return list(self._sorted())

    @property
    def measurements(self) -> list[Measurement]:
        return [self._measurements[c] for c in self._sorted()]

    def measurement_at(self, coordinate: Coordinate) -> Measurement:
        return self._measurements[coordinate]

    def __contains__(self, coordinate: Coordinate) -> bool:
        return coordinate in self._measurements

    def __len__(self) -> int:
        return len(self._measurements)

    def subset(self, keep: Iterable[Coordinate], name: str | None = None) -> "Kernel":
        """New kernel restricted to the coordinates in ``keep``."""
        out = Kernel(name or self.name, self.metric)
        for c in keep:
            if c in self._measurements:
                out.add(self._measurements[c])
        return out

    def __repr__(self) -> str:
        return f"Kernel({self.name!r}, metric={self.metric!r}, points={len(self)})"


class Experiment:
    """A full measurement campaign: parameters plus per-kernel measurements."""

    def __init__(self, parameters: Sequence[str]):
        if not parameters:
            raise ValueError("an experiment needs at least one parameter")
        if len(set(parameters)) != len(parameters):
            raise ValueError("parameter names must be unique")
        self.parameters = tuple(str(p) for p in parameters)
        self._kernels: dict[str, Kernel] = {}

    # ----------------------------------------------------------------- build
    @classmethod
    def single_parameter(
        cls,
        parameter: str,
        xs: Sequence[float],
        values: Sequence[Sequence[float]],
        kernel: str = "main",
        metric: str = "time",
    ) -> "Experiment":
        """Convenience constructor for a one-parameter, one-kernel experiment.

        ``values[k]`` holds the repetition values measured at ``xs[k]``.
        """
        if len(xs) != len(values):
            raise ValueError("xs and values must have the same length")
        exp = cls([parameter])
        kern = exp.create_kernel(kernel, metric)
        for x, reps in zip(xs, values):
            kern.add_values([x], reps)
        return exp

    def create_kernel(self, name: str, metric: str = "time") -> Kernel:
        if name in self._kernels:
            raise ValueError(f"kernel {name!r} already exists")
        kern = Kernel(name, metric)
        self._kernels[name] = kern
        return kern

    def add_kernel(self, kernel: Kernel) -> None:
        if kernel.name in self._kernels:
            raise ValueError(f"kernel {kernel.name!r} already exists")
        self._kernels[kernel.name] = kernel

    def remove_kernel(self, name: str) -> Kernel:
        """Drop and return a kernel (e.g. after it was quarantined)."""
        try:
            return self._kernels.pop(name)
        except KeyError:
            raise ValueError(f"no kernel named {name!r}") from None

    # ---------------------------------------------------------------- access
    @property
    def n_params(self) -> int:
        return len(self.parameters)

    @property
    def kernels(self) -> list[Kernel]:
        return [self._kernels[name] for name in sorted(self._kernels)]

    @property
    def kernel_names(self) -> list[str]:
        return sorted(self._kernels)

    def kernel(self, name: str) -> Kernel:
        return self._kernels[name]

    def only_kernel(self) -> Kernel:
        """The unique kernel of a single-kernel experiment."""
        if len(self._kernels) != 1:
            raise ValueError(f"experiment has {len(self._kernels)} kernels, expected exactly 1")
        return next(iter(self._kernels.values()))

    def coordinates(self) -> list[Coordinate]:
        """Union of all coordinates across kernels."""
        coords: set[Coordinate] = set()
        for kern in self._kernels.values():
            coords.update(kern.coordinates)
        return sorted(coords)

    def parameter_values(self) -> list[np.ndarray]:
        """Per-parameter sorted unique values occurring in any coordinate."""
        coords = self.coordinates()
        out = []
        for l in range(self.n_params):
            out.append(np.unique([c[l] for c in coords]))
        return out

    def validate(self) -> None:
        """Check structural invariants (arity, minimum point counts)."""
        for kern in self._kernels.values():
            for coord in kern.coordinates:
                if coord.dimensions != self.n_params:
                    raise ValueError(
                        f"kernel {kern.name!r} has coordinate {coord!r} with arity "
                        f"{coord.dimensions}, expected {self.n_params}"
                    )

    def __repr__(self) -> str:
        return (
            f"Experiment(parameters={list(self.parameters)!r}, "
            f"kernels={len(self._kernels)}, points={len(self.coordinates())})"
        )
