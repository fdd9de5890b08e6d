import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment.measurement import Coordinate
from repro.synthesis.measurements import cross_coordinates
from repro.synthesis.sequences import random_sequence

X1 = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
X2 = np.array([10.0, 20.0, 30.0, 40.0, 50.0])


class TestCrossCoordinates:
    def test_two_parameter_point_count(self):
        """5 + 5 - 1 shared anchor + 1 interaction point = 10."""
        coords = cross_coordinates([X1, X2])
        assert len(coords) == 10

    def test_lines_anchored_at_minima(self):
        coords = set(cross_coordinates([X1, X2]))
        for x in X1:
            assert Coordinate(x, 10.0) in coords
        for y in X2:
            assert Coordinate(4.0, y) in coords

    def test_interaction_point_off_both_lines(self):
        coords = set(cross_coordinates([X1, X2]))
        assert Coordinate(8.0, 20.0) in coords

    def test_interaction_point_optional(self):
        coords = cross_coordinates([X1, X2], include_interaction_point=False)
        assert len(coords) == 9

    def test_single_parameter_is_the_line(self):
        coords = cross_coordinates([X1])
        assert coords == [Coordinate(x) for x in X1]

    def test_three_parameters(self):
        X3 = np.array([3.0, 6.0, 9.0, 12.0, 15.0])
        coords = cross_coordinates([X1, X2, X3])
        # 3 * 5 - 2 shared anchors + 1 interaction = 14
        assert len(coords) == 14

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cross_coordinates([])

    @given(seed=st.integers(min_value=0, max_value=1000), m=st.integers(min_value=2, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_lines_recoverable_by_line_extraction(self, seed, m):
        """The layout must satisfy what the modelers need: a full line of
        five points per parameter, findable by parameter_lines()."""
        from repro.experiment.experiment import Kernel
        from repro.experiment.lines import parameter_lines
        from repro.util.seeding import as_generator

        gen = as_generator(seed)
        sets = [random_sequence(5, None, gen) for _ in range(m)]
        kern = Kernel("k")
        coords = cross_coordinates(sets)
        kern.add_rows(coords, [[1.0]] * len(coords))
        lines = parameter_lines(kern, m)
        assert len(lines) == m
        for l, line in enumerate(lines):
            np.testing.assert_array_equal(line.xs, np.sort(sets[l]))


class TestSweepLayout:
    def test_cross_sweep_runs(self):
        from repro.evaluation.sweep import SweepConfig, run_sweep
        from repro.regression.modeler import RegressionModeler

        config = SweepConfig(n_params=2, noise_levels=(0.05,), n_functions=5, layout="cross")
        result = run_sweep(config, {"regression": RegressionModeler()}, rng=0)
        assert result.cell(0.05, "regression").failures == 0

    def test_unknown_layout_rejected(self):
        from repro.evaluation.sweep import SweepConfig

        with pytest.raises(ValueError):
            SweepConfig(layout="diagonal")
