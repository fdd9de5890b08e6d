import numpy as np
import pytest

from repro.experiment.measurement import Coordinate
from repro.noise.injection import UniformNoise
from repro.pmnf.function import PerformanceFunction
from repro.pmnf.terms import ExponentPair
from repro.synthesis.measurements import (
    grid_coordinates,
    grid_points,
    synthesize_experiment,
    synthesize_measurements,
)

LINEAR = PerformanceFunction.single_term(1.0, 2.0, [ExponentPair(1, 0)])


class TestGridCoordinates:
    def test_cartesian_product(self):
        coords = grid_coordinates([np.array([2.0, 4.0]), np.array([10.0, 20.0, 30.0])])
        assert len(coords) == 6
        assert Coordinate(4.0, 30.0) in coords

    def test_single_parameter(self):
        coords = grid_coordinates([np.array([2.0, 4.0])])
        assert coords == [Coordinate(2.0), Coordinate(4.0)]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            grid_coordinates([])

    def test_points_in_ij_order(self):
        points = grid_points([np.array([2.0, 4.0]), np.array([10.0, 20.0, 30.0])])
        assert points.shape == (6, 2)
        assert [Coordinate(*row) for row in points] == grid_coordinates(
            [np.array([2.0, 4.0]), np.array([10.0, 20.0, 30.0])]
        )
        np.testing.assert_array_equal(points[:3, 1], [10.0, 20.0, 30.0])


class TestSynthesizeMeasurements:
    def test_noise_free_equals_truth(self):
        points = grid_points([np.array([2.0, 4.0, 8.0])])
        values = synthesize_measurements(LINEAR, points, repetitions=3, rng=0)
        assert values.shape == (3, 3)
        for point, row in zip(points, values):
            np.testing.assert_allclose(row, LINEAR.evaluate(point))

    def test_repetition_count(self):
        values = synthesize_measurements(LINEAR, grid_points([np.array([2.0])]), repetitions=5, rng=0)
        assert values.shape == (1, 5)

    def test_noise_bounded(self):
        points = grid_points([np.array([2.0, 4.0, 8.0, 16.0])])
        values = synthesize_measurements(LINEAR, points, UniformNoise(0.2), 5, rng=1)
        for point, row in zip(points, values):
            truth = LINEAR.evaluate(point)
            assert np.all(np.abs(row / truth - 1.0) <= 0.1 + 1e-12)

    def test_deterministic(self):
        points = grid_points([np.array([2.0, 4.0])])
        a = synthesize_measurements(LINEAR, points, UniformNoise(0.5), 5, rng=7)
        b = synthesize_measurements(LINEAR, points, UniformNoise(0.5), 5, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_coordinates_accepted_as_points(self):
        coords = grid_coordinates([np.array([2.0, 4.0, 8.0])])
        points = grid_points([np.array([2.0, 4.0, 8.0])])
        np.testing.assert_array_equal(
            synthesize_measurements(LINEAR, coords, UniformNoise(0.5), 5, rng=7),
            synthesize_measurements(LINEAR, points, UniformNoise(0.5), 5, rng=7),
        )

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            synthesize_measurements(LINEAR, grid_points([np.array([2.0])]), repetitions=0)


class TestSynthesizeExperiment:
    def test_structure(self):
        exp = synthesize_experiment(
            LINEAR, [np.array([2.0, 4.0, 8.0])], kernel="main", parameter_names=["p"]
        )
        assert exp.parameters == ("p",)
        assert len(exp.only_kernel()) == 3

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            synthesize_experiment(LINEAR, [np.array([2.0])], parameter_names=["a", "b"])
