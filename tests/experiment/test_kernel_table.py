"""Layout invariants of a kernel's measurement table.

A :class:`Kernel` holds a sorted ``(n, m)`` point array and one ``(k, r)``
value array per repetition count. These tests pin that the layout keeps
the semantics the per-``Measurement`` kernel had: ``sorted(Coordinate)``
order, repetitions merged in add order, bitwise aggregates, read-only
views, and errors that name the offending value.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.experiment.experiment import Experiment, Kernel
from repro.experiment.io import ExperimentFormatError, from_json_dict, parse_experiment
from repro.experiment.lines import parameter_lines
from repro.experiment.measurement import Coordinate, Measurement, value_table


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def random_adds(seed: int, n_adds: int = 60):
    """Adds at few distinct values per column (ties in every column, repeated
    coordinates) with 1-6 repetitions each, in random order."""
    gen = np.random.default_rng(seed)
    m = int(gen.integers(1, 4))
    values = [float(v) for v in gen.choice([0.5, 1.0, 2.0, 3.0, 64.0], size=3, replace=False)]
    adds = []
    for _ in range(n_adds):
        point = tuple(float(v) for v in gen.choice(values, size=m))
        adds.append((point, gen.lognormal(0.0, 1.0, size=int(gen.integers(1, 7)))))
    return adds


def add_in_calls(kernel: Kernel, adds, seed: int) -> None:
    """``adds`` in order, as ``add_rows`` calls of 1-8 rows each: ragged
    calls, merged within a call in row order and across calls in call order."""
    gen = np.random.default_rng(seed)
    start = 0
    while start < len(adds):
        stop = start + int(gen.integers(1, 9))
        kernel.add_rows([point for point, _ in adds[start:stop]], [v for _, v in adds[start:stop]])
        start = stop


def reference_merge(adds) -> "dict[tuple, np.ndarray]":
    """Per coordinate, its repetitions concatenated in add order."""
    merged: "dict[tuple, list]" = {}
    for point, values in adds:
        merged.setdefault(point, []).extend(values.tolist())
    return {point: np.asarray(values) for point, values in merged.items()}


class TestOrderAndMerging:
    @pytest.mark.parametrize("seed", range(10))
    def test_rows_sort_as_sorted_coordinates(self, seed):
        adds = random_adds(seed)
        kernel = Kernel("k")
        add_in_calls(kernel, adds, seed)
        expected = sorted({Coordinate(*point) for point, _ in adds})
        assert kernel.coordinates == expected
        assert [tuple(row) for row in kernel.table.points.tolist()] == [
            c.as_tuple() for c in expected
        ]

    @pytest.mark.parametrize("seed", range(10))
    def test_repeated_adds_merge_in_add_order(self, seed):
        adds = random_adds(seed)
        merged = reference_merge(adds)
        kernel = Kernel("k")
        add_in_calls(kernel, adds, seed)
        for meas in kernel.measurements:
            assert _bits(meas.values) == _bits(merged[meas.coordinate.as_tuple()])

    def test_add_rows_calls_merge_in_call_order(self):
        kernel = Kernel("k")
        kernel.add_rows([[4.0, 1.0]], [[1.0, 2.0]])
        kernel.add_rows([[4.0, 1.0], [2.0, 1.0], [4.0, 1.0]], [[3.0], [9.0], [4.0]])
        kernel.add_rows([[4.0, 1.0]], [[5.0]])
        kernel.add_rows(np.array([[2.0, 1.0]]), np.array([[8.0, 7.0]]))
        assert [c.as_tuple() for c in kernel.coordinates] == [(2.0, 1.0), (4.0, 1.0)]
        np.testing.assert_array_equal(kernel.measurements[0].values, [9.0, 8.0, 7.0])
        np.testing.assert_array_equal(kernel.measurements[1].values, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_groups_hold_one_array_per_repetition_count(self):
        kernel = Kernel("k")
        counts = [3, 5, 3, 1]
        kernel.add_rows([[8.0], [2.0], [4.0], [16.0]], [np.arange(1.0, c + 1.0) for c in counts])
        table = kernel.table
        shapes = {values.shape[1]: (rows.tolist(), values.shape) for rows, values in table.groups}
        assert shapes == {5: ([0], (1, 5)), 3: ([1, 2], (2, 3)), 1: ([3], (1, 1))}
        # Groups come in order of their first row.
        assert [values.shape[1] for _, values in table.groups] == [5, 3, 1]


class TestSingleParameter:
    XS = [8.0, 2.0, 8.0, 4.0, 2.0, 16.0, 8.0]
    VALUES = [[1.0, 2.0], [3.0], [4.0], [5.0, 6.0, 7.0], [8.0, 9.0], [1.5, 2.5, 3.5], [0.5]]

    def _payload(self, xs, values) -> str:
        rows = [{"point": [x], "values": reps} for x, reps in zip(xs, values)]
        kernel = {"name": "main", "metric": "time", "measurements": rows}
        return json.dumps({"version": 1, "parameters": ["p"], "kernels": [kernel]})

    def _assert_tables_bitwise_equal(self, ours, theirs):
        assert _bits(ours.points) == _bits(theirs.points)
        assert len(ours.groups) == len(theirs.groups)
        for (rows, values), (their_rows, their_values) in zip(ours.groups, theirs.groups):
            assert rows.tolist() == their_rows.tolist()
            assert values.shape == their_values.shape
            assert _bits(values) == _bits(their_values)

    def test_ragged_repeated_rows_match_the_parsed_table(self):
        # Ragged rows whose merged counts agree (3 per point), as the
        # validating parser requires.
        xs, values = self.XS[:-1], self.VALUES[:-1]
        table = Experiment.single_parameter("p", xs, values).only_kernel().table
        parsed, quarantined = parse_experiment(self._payload(xs, values))
        assert quarantined == []
        self._assert_tables_bitwise_equal(table, parsed.only_kernel().table)
        np.testing.assert_array_equal(table.points[:, 0], [2.0, 4.0, 8.0, 16.0])
        np.testing.assert_array_equal(
            table.groups[0][1], [[3.0, 8.0, 9.0], [5.0, 6.0, 7.0], [1.0, 2.0, 4.0], [1.5, 2.5, 3.5]]
        )

    def test_ragged_merged_counts_match_the_lenient_reader(self):
        table = Experiment.single_parameter("p", self.XS, self.VALUES).only_kernel().table
        read = from_json_dict(json.loads(self._payload(self.XS, self.VALUES)))
        self._assert_tables_bitwise_equal(table, read.only_kernel().table)
        assert [(rows.tolist(), v.shape) for rows, v in table.groups] == [
            ([0, 1, 3], (3, 3)),
            ([2], (1, 4)),
        ]


class TestAggregation:
    @pytest.mark.parametrize("aggregation", ["median", "mean", "min"])
    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_counts_aggregate_bitwise_per_measurement(self, aggregation, seed):
        kernel = Kernel("k")
        add_in_calls(kernel, random_adds(seed, n_adds=80), seed)
        expected = [m.aggregate(aggregation) for m in kernel.measurements]
        _, values = value_table(kernel, aggregation)
        assert _bits(values) == _bits(expected)

    def test_views_match_a_fresh_measurement(self):
        kernel = Kernel("k")
        add_in_calls(kernel, random_adds(1), 1)
        for meas in kernel.measurements:
            fresh = Measurement(meas.coordinate, meas.values)
            assert fresh.median == meas.median
            assert _bits(fresh.relative_deviations()) == _bits(meas.relative_deviations())


class TestReadsAfterAdds:
    def test_add_after_read_is_visible(self):
        kernel = Kernel("k")
        kernel.add_rows([[1.0], [2.0], [3.0], [4.0]], [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        first_points, first_values = value_table(kernel)
        kernel.add_rows([[2.0]], [[20.0]])
        kernel.add_rows([[5.0]], [[5.0, 5.0]])
        points, values = value_table(kernel)
        np.testing.assert_array_equal(points[:, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert kernel.measurement_at(Coordinate(2.0)).repetitions == 3
        assert len(kernel) == 5
        # What was read before stays as it was.
        np.testing.assert_array_equal(first_points[:, 0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(first_values, [1.0, 2.0, 3.0, 4.0])

    def test_lines_follow_an_add(self):
        kernel = Kernel("k")
        xs = [4.0, 8.0, 16.0, 32.0]
        kernel.add_rows([[x] for x in xs], [[x] for x in xs])
        with pytest.raises(ValueError, match="only 4"):
            parameter_lines(kernel, 1)
        kernel.add_rows([[64.0]], [[64.0]])
        (line,) = parameter_lines(kernel, 1)
        np.testing.assert_array_equal(line.xs, xs + [64.0])
        np.testing.assert_array_equal(line.medians, xs + [64.0])


class TestReadOnlyViews:
    def test_views_are_read_only(self):
        kernel = Kernel("k")
        kernel.add_rows([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]])
        table = kernel.table
        arrays = [table.points, kernel.measurements[0].values, value_table(kernel)[1]]
        arrays += [array for group in table.groups for array in group]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_pickled_kernel_is_equal_and_read_only(self):
        kernel = Kernel("k")
        add_in_calls(kernel, random_adds(2), 2)
        value_table(kernel)
        copy = pickle.loads(pickle.dumps(kernel))
        assert copy.coordinates == kernel.coordinates
        for a, b in zip(copy.measurements, kernel.measurements):
            assert _bits(a.values) == _bits(b.values)
        assert not copy.table.points.flags.writeable
        assert all(not values.flags.writeable for _, values in copy.table.groups)

    def test_add_rows_copies_its_input(self):
        points = np.array([[1.0], [2.0]])
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        kernel = Kernel("k")
        kernel.add_rows(points, values)
        points[0, 0] = 9.0
        values[0, 0] = 9.0
        np.testing.assert_array_equal(kernel.table.points[:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(kernel.measurements[0].values, [1.0, 2.0])


class TestSubset:
    def test_subset_keeps_the_named_points(self):
        kernel = Kernel("k", metric="bytes")
        add_in_calls(kernel, random_adds(4), 4)
        coords = kernel.coordinates
        keep = coords[::2] + [Coordinate(*([99.0] * len(coords[0])))]
        sub = kernel.subset(keep, name="sub")
        assert (sub.name, sub.metric) == ("sub", "bytes")
        assert sub.coordinates == coords[::2]
        for meas in sub.measurements:
            assert _bits(meas.values) == _bits(kernel.measurement_at(meas.coordinate).values)

    def test_empty_subset(self):
        kernel = Kernel("k")
        kernel.add_rows([[1.0]], [[1.0]])
        assert len(kernel.subset([])) == 0


class TestErrors:
    @pytest.mark.parametrize(
        "points, values, match",
        [
            ([[2.0, -1.0]], [[1.0]], r"positive and finite, got \(2\.0, -1\.0\)"),
            ([[2.0, 0.0]], [[1.0]], r"positive and finite, got \(2\.0, 0\.0\)"),
            ([[np.inf, 1.0]], [[1.0]], r"positive and finite, got \(inf, 1\.0\)"),
            ([[2.0, 1.0]], [[1.0, np.nan]], r"values must be finite, got \(1\.0, nan\)"),
            ([[2.0, 1.0]], [[np.inf]], r"values must be finite, got \(inf,\)"),
            ([[2.0, 1.0]], [[]], r"shapes \(1, 2\) and \(1, 0\)"),
            ([[2.0, 1.0], [3.0, 1.0]], [[1.0]], r"shapes \(2, 2\) and \(1, 1\)"),
        ],
    )
    def test_add_rows_names_the_bad_value(self, points, values, match):
        kernel = Kernel("k")
        with pytest.raises(ValueError, match=match):
            kernel.add_rows(points, values)
        assert len(kernel) == 0

    @pytest.mark.parametrize(
        "points, values, match",
        [
            ([[1.0, 1.0], [2.0, -1.0]], [[1.0, 2.0], [1.0]], r"positive and finite, got \(2\.0, -1\.0\)"),
            ([[1.0, 1.0], [2.0, 1.0]], [[1.0, 2.0], [np.nan]], r"values must be finite, got \(nan,\)"),
            ([[1.0, 1.0], [2.0, 1.0]], [[1.0, 2.0], []], r"shapes \(2, 2\) and \(1, 2\) \+ \(1, 0\)"),
            ([[1.0, 1.0]], [[1.0, 2.0], [1.0]], r"shapes \(1, 2\) and \(1, 2\) \+ \(1, 1\)"),
        ],
    )
    def test_ragged_rows_name_the_bad_value(self, points, values, match):
        kernel = Kernel("k")
        kernel.add_rows([[4.0, 4.0]], [[1.0]])
        with pytest.raises(ValueError, match=match):
            kernel.add_rows(points, values)
        assert kernel.coordinates == [Coordinate(4.0, 4.0)]

    def test_single_adds_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"positive and finite, got \(2\.0, -1\.0\)"):
            Kernel("k").add_rows([[2.0, -1.0]], [[1.0]])
        with pytest.raises(ValueError, match=r"positive and finite, got \(-1\.0,\)"):
            Experiment.single_parameter("p", [4.0, -1.0], [[1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match=r"values must be finite, got \(1\.0, nan\)"):
            Experiment.single_parameter("p", [4.0, 8.0], [[1.0], [1.0, np.nan]])

    def test_mixed_arity_refused_at_add(self):
        kernel = Kernel("k")
        kernel.add_rows([[2.0, 1.0]], [[1.0]])
        with pytest.raises(ValueError, match=r"arity 1.*kernel 'k' holds 2-dimensional"):
            kernel.add_rows([[2.0]], [[1.0]])
        with pytest.raises(ValueError, match=r"arity 3.*kernel 'k' holds 2-dimensional"):
            kernel.add_rows([[1.0, 2.0, 3.0]], [[1.0]])


class TestExperimentFromArrays:
    def test_coordinates_and_parameter_values_span_kernels(self):
        exp = Experiment(["p", "n"])
        exp.create_kernel("a").add_rows([[8.0, 10.0], [4.0, 20.0]], [[1.0], [2.0]])
        exp.create_kernel("b").add_rows([[4.0, 20.0], [2.0, 30.0]], [[3.0], [4.0]])
        exp.create_kernel("empty")
        assert exp.coordinates() == [
            Coordinate(2.0, 30.0),
            Coordinate(4.0, 20.0),
            Coordinate(8.0, 10.0),
        ]
        values = exp.parameter_values()
        np.testing.assert_array_equal(values[0], [2.0, 4.0, 8.0])
        np.testing.assert_array_equal(values[1], [10.0, 20.0, 30.0])

    def test_add_kernel_refuses_arity_by_name(self):
        exp = Experiment(["p", "n"])
        kernel = Kernel("k")
        kernel.add_rows([[8.0], [4.0]], [[1.0], [2.0]])
        with pytest.raises(
            ValueError,
            match=r"coordinates of arity 2, but kernel 'k' holds 1-dimensional coordinates",
        ):
            exp.add_kernel(kernel)
        assert exp.kernel_names == []

    def test_add_kernel_refuses_an_empty_kernels_fixed_arity(self):
        kernel = Experiment(["p"]).create_kernel("k")
        exp = Experiment(["p", "q"])
        with pytest.raises(
            ValueError, match=r"coordinates of arity 2, but kernel 'k' holds 1-dimensional"
        ):
            exp.add_kernel(kernel)
        assert exp.kernel_names == []

    def test_add_kernel_fixes_an_empty_kernels_arity(self):
        exp = Experiment(["p", "n"])
        kernel = Kernel("k")
        exp.add_kernel(kernel)
        with pytest.raises(ValueError, match=r"arity 1, but kernel 'k' holds 2-dimensional"):
            kernel.add_rows([[4.0]], [[1.0]])

    def test_mixed_arities_across_kernels_refused_by_name(self):
        exp = Experiment(["p", "n"])
        exp.create_kernel("a").add_rows([[8.0, 10.0]], [[1.0]])
        with pytest.raises(
            ValueError,
            match=r"coordinates of arity 1, but kernel 'b' holds 2-dimensional coordinates",
        ):
            exp.create_kernel("b").add_rows([[4.0]], [[1.0]])
        assert exp.coordinates() == [Coordinate(8.0, 10.0)]

    def test_io_errors_keep_the_measurement_index(self):
        data = {
            "version": 1,
            "parameters": ["p", "n"],
            "kernels": [
                {
                    "name": "k",
                    "measurements": [
                        {"point": [2.0, 1.0], "values": [1.0]},
                        {"point": [4.0, 1.0], "values": [1.0]},
                        {"point": [4.0], "values": [1.0]},
                    ],
                }
            ],
        }
        with pytest.raises(ExperimentFormatError, match="kernel 'k', measurement 2: .*arity 1"):
            from_json_dict(data)
        with pytest.raises(ExperimentFormatError, match="measurement 2: .*arity 1"):
            parse_experiment(json.dumps(data))
