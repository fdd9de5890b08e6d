import numpy as np
import pytest

from repro.experiment.experiment import Experiment, Kernel
from repro.experiment.measurement import Coordinate


class TestKernel:
    def test_add_and_access(self):
        k = Kernel("sweep")
        k.add_rows([[4.0]], [[1.0, 2.0]])
        assert len(k) == 1
        assert k.measurement_at(Coordinate(4.0)).median == 1.5

    def test_duplicate_coordinate_merges_repetitions(self):
        k = Kernel("sweep")
        k.add_rows([[4.0]], [[1.0]])
        k.add_rows([[4.0]], [[3.0]])
        assert len(k) == 1
        assert k.measurement_at(Coordinate(4.0)).repetitions == 2

    def test_coordinates_sorted(self):
        k = Kernel("k")
        k.add_rows([[16.0], [4.0], [8.0]], [[1.0]] * 3)
        assert [c[0] for c in k.coordinates] == [4.0, 8.0, 16.0]

    def test_measurements_reflect_merging_add(self):
        """An add merging repetitions at an existing coordinate shows in the
        next ``measurements`` read, and the returned lists are fresh."""
        k = Kernel("k")
        k.add_rows([[16.0], [4.0], [8.0]], [[16.0], [4.0], [8.0]])
        before = k.measurements
        k.add_rows([[8.0]], [[2.0, 5.0]])
        after = k.measurements
        assert [m.coordinate[0] for m in after] == [4.0, 8.0, 16.0]
        np.testing.assert_array_equal(after[1].values, [8.0, 2.0, 5.0])
        np.testing.assert_array_equal(before[1].values, [8.0])
        after.clear()
        k.coordinates.clear()
        assert len(k.measurements) == len(k.coordinates) == 3

    def test_coordinates_reflect_new_point(self):
        k = Kernel("k")
        k.add_rows([[8.0]], [[1.0]])
        assert [c[0] for c in k.coordinates] == [8.0]
        k.add_rows([[2.0]], [[1.0]])
        assert [c[0] for c in k.coordinates] == [2.0, 8.0]

    def test_subset(self):
        k = Kernel("k")
        k.add_rows([[4.0], [8.0], [16.0]], [[4.0], [8.0], [16.0]])
        sub = k.subset([Coordinate(4.0), Coordinate(16.0), Coordinate(99.0)])
        assert len(sub) == 2
        assert Coordinate(8.0) not in sub


class TestExperiment:
    def test_single_parameter_builder(self):
        exp = Experiment.single_parameter("p", [4, 8, 16, 32, 64], [[1], [2], [3], [4], [5]])
        kern = exp.only_kernel()
        assert exp.n_params == 1
        assert len(kern) == 5

    def test_builder_length_mismatch(self):
        with pytest.raises(ValueError):
            Experiment.single_parameter("p", [4, 8], [[1]])

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError):
            Experiment(["p", "p"])

    def test_duplicate_kernel_rejected(self):
        exp = Experiment(["p"])
        exp.create_kernel("a")
        with pytest.raises(ValueError):
            exp.create_kernel("a")

    def test_only_kernel_requires_single(self):
        exp = Experiment(["p"])
        exp.create_kernel("a")
        exp.create_kernel("b")
        with pytest.raises(ValueError):
            exp.only_kernel()

    def test_kernels_sorted_by_name(self):
        exp = Experiment(["p"])
        exp.create_kernel("zeta")
        exp.create_kernel("alpha")
        assert exp.kernel_names == ["alpha", "zeta"]

    def test_coordinates_union(self):
        exp = Experiment(["p"])
        a = exp.create_kernel("a")
        b = exp.create_kernel("b")
        a.add_rows([[4.0]], [[1.0]])
        b.add_rows([[8.0]], [[1.0]])
        assert len(exp.coordinates()) == 2

    def test_parameter_values(self):
        exp = Experiment(["p", "n"])
        k = exp.create_kernel("k")
        k.add_rows([(p, n) for p in (4.0, 8.0) for n in (10.0, 20.0)], [[1.0]] * 4)
        values = exp.parameter_values()
        np.testing.assert_array_equal(values[0], [4.0, 8.0])
        np.testing.assert_array_equal(values[1], [10.0, 20.0])

    def test_create_kernel_catches_arity_mismatch(self):
        exp = Experiment(["p", "n"])
        k = exp.create_kernel("k")
        with pytest.raises(ValueError, match=r"arity 1, but kernel 'k' holds 2-dimensional"):
            k.add_rows([[4.0]], [[1.0]])
        assert len(k) == 0
