import numpy as np
import pytest

from repro.experiment.experiment import Kernel
from repro.experiment.lines import all_parameter_lines, line_coordinates, parameter_lines
from repro.experiment.measurement import Coordinate, Measurement


def grid_kernel(xs1, xs2) -> Kernel:
    k = Kernel("k")
    for a in xs1:
        for b in xs2:
            k.add(Measurement(Coordinate(a, b), [a + b]))
    return k


def cross_kernel(xs1, x2_fixed, x1_fixed, xs2) -> Kernel:
    """Two crossing lines, as in the FASTEST/RELeARN campaigns."""
    k = Kernel("k")
    for a in xs1:
        k.add(Measurement(Coordinate(a, x2_fixed), [float(a)]))
    for b in xs2:
        if Coordinate(x1_fixed, b) not in k:
            k.add(Measurement(Coordinate(x1_fixed, b), [float(b)]))
    return k


X1 = (4.0, 8.0, 16.0, 32.0, 64.0)
X2 = (10.0, 20.0, 30.0, 40.0, 50.0)


class TestParameterLines:
    def test_single_parameter_line_is_everything(self):
        k = Kernel("k")
        for x in X1:
            k.add(Measurement(Coordinate(x), [x]))
        (line,) = parameter_lines(k, 1)
        assert len(line) == 5
        np.testing.assert_array_equal(line.xs, X1)

    def test_grid_lines_pick_smallest_fixed_values(self):
        k = grid_kernel(X1, X2)
        lines = parameter_lines(k, 2)
        assert lines[0].parameter == 0
        assert lines[0].fixed == (10.0,)  # cheapest x2
        assert lines[1].fixed == (4.0,)  # cheapest x1

    def test_cross_layout_finds_both_lines(self):
        # x1 varies at x2=50 (max!), x2 varies at x1=64: the largest group
        # wins regardless of whether the anchor is the smallest value.
        k = cross_kernel(X1, 50.0, 64.0, X2)
        lines = parameter_lines(k, 2)
        assert lines[0].fixed == (50.0,)
        assert lines[1].fixed == (64.0,)
        np.testing.assert_array_equal(lines[1].xs, X2)

    def test_medians_follow_xs_order(self):
        k = cross_kernel(X1, 50.0, 64.0, X2)
        (line0, line1) = parameter_lines(k, 2)
        np.testing.assert_array_equal(line0.medians, X1)

    def test_too_few_points_raises(self):
        k = grid_kernel(X1[:3], X2)
        with pytest.raises(ValueError, match="parameter 0"):
            parameter_lines(k, 2)

    def test_min_points_override(self):
        k = grid_kernel(X1[:3], X2)
        lines = parameter_lines(k, 2, min_points=3)
        assert len(lines[0]) == 3


class TestAllParameterLines:
    def test_grid_has_one_line_per_fixed_value(self):
        k = grid_kernel(X1, X2)
        lines = all_parameter_lines(k, 2, 0, min_points=5)
        assert len(lines) == len(X2)

    def test_sorted_by_size_then_fixed(self):
        k = cross_kernel(X1, 50.0, 64.0, X2)
        lines = all_parameter_lines(k, 2, 0, min_points=1)
        assert len(lines[0]) >= len(lines[-1])


class TestLineCoordinates:
    def test_union(self):
        k = cross_kernel(X1, 50.0, 64.0, X2)
        coords = line_coordinates(parameter_lines(k, 2))
        assert len(coords) == 9  # 5 + 5 - shared crossing point


def reference_lines(kernel: Kernel, n_params: int) -> list:
    """Per-coordinate reference: each parameter's first line by (-len, fixed)."""
    return [
        all_parameter_lines(kernel, n_params, parameter, min_points=1)[0]
        for parameter in range(n_params)
    ]


def assert_same_lines(lines, expected) -> None:
    assert len(lines) == len(expected)
    for line, ref in zip(lines, expected):
        assert line.parameter == ref.parameter
        assert line.fixed == ref.fixed
        assert all(type(v) is float for v in line.fixed)
        assert len(line.measurements) == len(ref.measurements)
        assert all(a is b for a, b in zip(line.measurements, ref.measurements))


def kernel_at(coordinates) -> Kernel:
    k = Kernel("k")
    for coord in coordinates:
        k.add(Measurement(Coordinate(*coord), [sum(coord)]))
    return k


class TestLinesMatchReference:
    """parameter_lines (integer group codes, memoized) against the per-coordinate
    grouping of all_parameter_lines."""

    def test_grid(self):
        k = kernel_at([(a, b, c) for a in X1 for b in X2 for c in (1.0, 2.0, 3.0, 4.0, 5.0)])
        assert_same_lines(parameter_lines(k, 3), reference_lines(k, 3))

    def test_cross(self):
        k = cross_kernel(X1, 50.0, 64.0, X2)
        assert_same_lines(parameter_lines(k, 2), reference_lines(k, 2))

    def test_cross_plus_interaction(self):
        coords = {(a, 50.0) for a in X1} | {(64.0, b) for b in X2}
        coords |= {(a, b) for a in X1[:2] for b in X2[:2]}
        k = kernel_at(sorted(coords))
        assert_same_lines(parameter_lines(k, 2, min_points=1), reference_lines(k, 2))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sparse_subsets_with_ties(self, seed):
        gen = np.random.default_rng(seed)
        n_params = int(gen.integers(2, 5))
        values = [(1.0, 2.0, 3.0, 4.0)] * n_params
        grid = np.stack(np.meshgrid(*values, indexing="ij"), axis=-1).reshape(-1, n_params)
        keep = grid[gen.random(len(grid)) < 0.5]
        if len(keep) == 0:
            keep = grid[:1]
        k = kernel_at([tuple(float(v) for v in row) for row in keep])
        assert_same_lines(parameter_lines(k, n_params, min_points=1), reference_lines(k, n_params))

    def test_single_parameter(self):
        k = kernel_at([(x,) for x in (64.0, 4.0, 16.0, 8.0, 32.0)])
        (line,) = parameter_lines(k, 1)
        assert_same_lines([line], reference_lines(k, 1))
        assert line.fixed == ()

    @pytest.mark.parametrize("n_params, line_length", [(1, 20), (2, 10)])
    def test_more_dimensions_than_n_params(self, n_params, line_length):
        # Values past n_params are ignored: points differing only there
        # share a line and keep their coordinate order within it.
        coords = [(a, b, c) for a in X1 for b in X2[:2] for c in (7.0, 9.0)]
        k = kernel_at(coords)
        lines = parameter_lines(k, n_params, min_points=1)
        assert_same_lines(lines, reference_lines(k, n_params))
        assert len(lines[0]) == line_length

    def test_empty_kernel_message_unchanged(self):
        with pytest.raises(
            ValueError,
            match="parameter 0 has only 0 measurement points along its best line; "
            "at least 5 are required",
        ):
            parameter_lines(Kernel("empty"), 2)

    @pytest.mark.parametrize("build", [parameter_lines, lambda k, n: all_parameter_lines(k, n, 0)])
    def test_too_few_dimensions_raise_value_error(self, build):
        k = grid_kernel(X1, X2)
        with pytest.raises(ValueError, match=r"kernel 'k' has 2-dimensional.*n_params=3"):
            build(k, 3)


class TestLineMemo:
    def test_plain_add_invalidates(self):
        k = grid_kernel(X1, X2[:4])
        with pytest.raises(ValueError, match="parameter 1 has only 4"):
            parameter_lines(k, 2)
        for a in X1:
            k.add(Measurement(Coordinate(a, 60.0), [1.0]))
        lines = parameter_lines(k, 2)
        assert len(lines[1]) == 5
        assert_same_lines(lines, reference_lines(k, 2))

    def test_merging_add_invalidates(self):
        k = grid_kernel(X1, X2)
        before = parameter_lines(k, 2)
        k.add(Measurement(Coordinate(4.0, 10.0), [99.0]))
        after = parameter_lines(k, 2)
        assert after[0].measurements[0] is k.measurement_at(Coordinate(4.0, 10.0))
        assert after[0].measurements[0] is not before[0].measurements[0]
        assert after[0].measurements[0].repetitions == 2

    def test_repeat_call_shares_lines(self):
        k = grid_kernel(X1, X2)
        first, second = parameter_lines(k, 2), parameter_lines(k, 2)
        assert first is not second
        assert all(a is b for a, b in zip(first, second))

    def test_mutating_returned_list_is_harmless(self):
        k = grid_kernel(X1, X2)
        lines = parameter_lines(k, 2)
        expected = list(lines)
        lines.pop()
        lines.append(None)
        assert parameter_lines(k, 2) == expected
