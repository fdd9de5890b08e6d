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
    into a new table on the next read, so many adds pay for one stack and
    one sort, not one per add. :attr:`measurements`,
    :attr:`coordinates` and :meth:`measurement_at` are read-only views of
    the table, kept for IO, the service schema and reporting.
    """

    def __init__(self, name: str, metric: str = "time"):
        self.name = name
        self.metric = metric
        self._table = MeasurementTable.build([])
        # Validated (points (k, m), values (k, r)) blocks not yet merged.
        self._pending: "list[tuple[np.ndarray, np.ndarray]]" = []
        self._arity: "int | None" = None
        self._memo: dict = {}

    # ----------------------------------------------------------------- build
    def require_arity(self, arity: int) -> None:
        """Hold ``arity``-dimensional coordinates only: refuse the kernel if
        it holds others already, and every later add of others."""
        if self._arity is None:
            self._arity = arity
        elif arity != self._arity:
            raise ValueError(
                f"coordinates of arity {arity}, but kernel {self.name!r} "
                f"holds {self._arity}-dimensional coordinates"
            )

    def add_rows(self, points, values) -> None:
        """Add ``values[i]`` (its repetitions) at ``points[i]``, for all rows at once.

        ``points`` is ``(k, m)`` (an array, or a sequence of coordinates) and
        ``values`` is ``(k, r)``, or a sequence of ``k`` rows of differing
        lengths, held as one block per run of rows of one length.
        Coordinates must be positive and finite and values finite, checked
        before anything is added. Rows at one coordinate merge their
        repetitions in call order, then row order.
        """
        points = np.array(points, dtype=float)
        cuts = [0, len(values)]
        if not isinstance(values, np.ndarray):
            lengths = [len(row) for row in values]
            cuts[1:1] = [i for i in range(1, len(lengths)) if lengths[i] != lengths[i - 1]]
        spans = list(zip(cuts, cuts[1:]))
        blocks = [np.array(values[a:b], dtype=float) for a, b in spans]
        if (
            points.ndim != 2
            or not points.shape[1]
            or len(points) != sum(map(len, blocks))
            or any(block.ndim != 2 or not block.shape[1] for block in blocks)
        ):
            raise ValueError(
                f"add_rows needs points (k, m) and values (k, r) with m, r >= 1, got shapes "
                f"{points.shape} and {' + '.join(str(block.shape) for block in blocks)}"
            )
        bad = ~(np.isfinite(points) & (points > 0)).all(axis=1)
        if bad.any():
            raise ValueError(
                "parameter values must be positive and finite, got "
                f"{tuple(points[np.argmax(bad)].tolist())}"
            )
        for block in blocks:
            bad = ~np.isfinite(block).all(axis=1)
            if bad.any():
                raise ValueError(
                    f"measurement values must be finite, got {tuple(block[np.argmax(bad)].tolist())}"
                )
        if len(points):
            self.require_arity(points.shape[1])
            self._pending.extend((points[a:b], block) for (a, b), block in zip(spans, blocks))

    # ---------------------------------------------------------------- access
    def _merge(self) -> None:
        """Merge every add so far into a new table."""
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

        ``values[k]`` holds the repetition values measured at ``xs[k]``; the
        counts may differ between points.
        """
        if len(xs) != len(values):
            raise ValueError("xs and values must have the same length")
        exp = cls([parameter])
        exp.create_kernel(kernel, metric).add_rows([[x] for x in xs], values)
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
