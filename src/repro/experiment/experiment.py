"""The experiment container consumed by all modelers."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.experiment.measurement import Coordinate, Measurement, MeasurementTable


class Kernel:
    """Measurements of one kernel (call path) for one metric.

    Kernels are what Extra-P models individually: the paper creates one
    performance model per application kernel, not per application.

    The measurements are held as arrays in a :class:`MeasurementTable`
    (:attr:`table`): a sorted ``(n, m)`` point array and one ``(k, r)``
    value array per repetition count ``r``. Adds are buffered and merged
    into a new table on the next read, so a point-by-point builder pays
    for one stack and one sort, not one per add. :attr:`measurements`,
    :attr:`coordinates` and :meth:`measurement_at` are read-only views of
    the table, kept for IO, the service schema and reporting.
    """

    def __init__(self, name: str, metric: str = "time"):
        self.name = name
        self.metric = metric
        self._table = MeasurementTable.build([])
        # Validated (points (k, m), values (k, r)) blocks not yet merged,
        # and the (point, values) single adds since the last block.
        self._pending: "list[tuple[np.ndarray, np.ndarray]]" = []
        self._added: "list[tuple[tuple[float, ...], np.ndarray]]" = []
        self._arity: "int | None" = None
        self._memo: dict = {}

    # ----------------------------------------------------------------- build
    def _check_arity(self, arity: int, point: "tuple[float, ...]") -> None:
        if self._arity is None:
            self._arity = arity
        elif arity != self._arity:
            raise ValueError(
                f"coordinate {point} has arity {arity}, but kernel {self.name!r} "
                f"holds {self._arity}-dimensional coordinates"
            )

    def require_arity(self, arity: int) -> None:
        """Hold ``arity``-dimensional coordinates only: refuse the kernel if
        it holds others already, and every later add of others."""
        if self._arity is None:
            self._arity = arity
        elif arity != self._arity:
            raise ValueError(
                f"kernel {self.name!r} has coordinate {self.coordinates[0]!r} with arity "
                f"{self._arity}, expected {arity}"
            )

    def add(self, measurement: Measurement) -> None:
        """Add a measurement; repeated adds at one coordinate merge repetitions."""
        point = measurement.coordinate.as_tuple()
        self._check_arity(len(point), point)
        self._added.append((point, measurement.values))

    def _seal(self) -> None:
        """Turn the single adds into blocks, keeping their order."""
        added, self._added = self._added, []
        if not added:
            return
        if len({values.size for _, values in added}) == 1:
            points = np.array([point for point, _ in added])
            values = np.concatenate([values for _, values in added]).reshape(len(added), -1)
            self._pending.append((points, values))
        else:
            self._pending.extend((np.array([point]), values[None, :]) for point, values in added)

    def add_values(self, coordinate: "Coordinate | Sequence[float]", values: Iterable[float]) -> None:
        if not isinstance(coordinate, Coordinate):
            coordinate = Coordinate(*coordinate)
        self.add(Measurement(coordinate, values))

    def add_rows(self, points, values) -> None:
        """Add ``values[i]`` (``r`` repetitions) at ``points[i]``, for all rows at once.

        ``points`` is ``(k, m)`` (an array, or a sequence of coordinates) and
        ``values`` is ``(k, r)``. Coordinates must be positive and finite and
        values finite, checked in one pass; the semantics are those of
        :meth:`add` per row, in row order.
        """
        points = np.array(points, dtype=float)
        values = np.array(values, dtype=float)
        if points.ndim != 2 or values.ndim != 2 or len(points) != len(values) or not (
            points.shape[1] and values.shape[1]
        ):
            raise ValueError(
                f"add_rows needs points (k, m) and values (k, r) with m, r >= 1, got shapes "
                f"{points.shape} and {values.shape}"
            )
        bad = ~(np.isfinite(points) & (points > 0)).all(axis=1)
        if bad.any():
            raise ValueError(
                "parameter values must be positive and finite, got "
                f"{tuple(points[np.argmax(bad)].tolist())}"
            )
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            raise ValueError(
                f"measurement values must be finite, got {tuple(values[np.argmax(bad)].tolist())}"
            )
        if len(points):
            self._check_arity(points.shape[1], tuple(points[0].tolist()))
            self._seal()
            self._pending.append((points, values))

    # ---------------------------------------------------------------- access
    def _merge(self) -> None:
        """Merge every add so far into a new table."""
        self._seal()
        if self._pending:
            self._table = MeasurementTable.build(self._table.blocks() + self._pending)
            self._pending = []
            self._memo = {}

    @property
    def table(self) -> MeasurementTable:
        """The measurements as arrays, with every add so far merged in."""
        self._merge()
        return self._table

    def memo(self, key, build):
        """``build()``, computed once per ``key`` until the next add.

        For values that refer to the table, such as measurement lines: on
        the table itself they would form a reference cycle, which only the
        cyclic garbage collector frees, so a served request's kernels would
        outlive it.
        """
        self._merge()
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def coordinates(self) -> list[Coordinate]:
        return [m.coordinate for m in self.table.measurements()]

    @property
    def measurements(self) -> list[Measurement]:
        return list(self.table.measurements())

    def _row(self, coordinate: Coordinate) -> "int | None":
        points = self.table.points
        if len(coordinate) != points.shape[1]:
            return None
        hits = np.flatnonzero((points == coordinate.as_tuple()).all(axis=1))
        return int(hits[0]) if len(hits) else None

    def measurement_at(self, coordinate: Coordinate) -> Measurement:
        row = self._row(coordinate)
        if row is None:
            raise KeyError(coordinate)
        return self.table.measurements()[row]

    def __contains__(self, coordinate: Coordinate) -> bool:
        return self._row(coordinate) is not None

    def __len__(self) -> int:
        return len(self.table)

    def subset(self, keep: Iterable[Coordinate], name: str | None = None) -> "Kernel":
        """New kernel restricted to the coordinates in ``keep``."""
        wanted = {tuple(c) for c in keep}
        table = self.table
        kept = np.array([tuple(p) in wanted for p in table.points.tolist()], dtype=bool)
        out = Kernel(name or self.name, self.metric)
        for rows, values in table.groups:
            mask = kept[rows]
            if mask.any():
                out.add_rows(table.points[rows[mask]], values[mask])
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
        kern.require_arity(self.n_params)
        self._kernels[name] = kern
        return kern

    def add_kernel(self, kernel: Kernel) -> None:
        if kernel.name in self._kernels:
            raise ValueError(f"kernel {kernel.name!r} already exists")
        kernel.require_arity(self.n_params)
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

    def _points(self) -> np.ndarray:
        """Every kernel's points stacked, duplicates kept."""
        tables = [kern.table for kern in self._kernels.values()]
        points = [table.points for table in tables if len(table)]
        return np.concatenate(points) if points else np.empty((0, self.n_params))

    def coordinates(self) -> list[Coordinate]:
        """Union of all coordinates across kernels, sorted."""
        points = self._points()
        points = points[np.lexsort(points.T[::-1])]
        distinct = np.concatenate(([True], (points[1:] != points[:-1]).any(axis=1)))
        return [Coordinate(*row) for row in points[distinct].tolist()]

    def parameter_values(self) -> list[np.ndarray]:
        """Per-parameter sorted unique values occurring in any coordinate."""
        return [np.unique(column) for column in self._points().T]

    def __repr__(self) -> str:
        return (
            f"Experiment(parameters={list(self.parameters)!r}, "
            f"kernels={len(self._kernels)}, points={len(self.coordinates())})"
        )
