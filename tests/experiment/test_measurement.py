import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiment.experiment import Kernel
from repro.experiment.lines import parameter_lines
from repro.experiment.measurement import Coordinate, Measurement, median_table, value_table


def _kernel(measurements) -> Kernel:
    kernel = Kernel("k")
    kernel.add_rows([m.coordinate for m in measurements], [m.values for m in measurements])
    return kernel


class TestCoordinate:
    def test_from_values(self):
        c = Coordinate(8.0, 64.0)
        assert c.dimensions == 2
        assert c[1] == 64.0

    def test_from_sequence(self):
        assert Coordinate([4, 5]) == Coordinate(4.0, 5.0)

    def test_hashable_by_value(self):
        assert len({Coordinate(1, 2), Coordinate(1, 2), Coordinate(1, 3)}) == 2

    def test_sortable(self):
        coords = sorted([Coordinate(2, 1), Coordinate(1, 9), Coordinate(1, 2)])
        assert coords[0] == Coordinate(1, 2)

    def test_replace(self):
        assert Coordinate(1, 2).replace(1, 5) == Coordinate(1, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Coordinate(0.0)
        with pytest.raises(ValueError):
            Coordinate(4.0, -1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Coordinate()

    def test_as_array_roundtrip(self):
        c = Coordinate(3.0, 7.0)
        assert Coordinate(*c.as_array()) == c


class TestMeasurement:
    def test_statistics(self):
        m = Measurement(Coordinate(4.0), [1.0, 2.0, 3.0, 4.0, 100.0])
        assert m.median == 3.0
        assert m.mean == 22.0
        assert m.minimum == 1.0
        assert m.maximum == 100.0
        assert m.repetitions == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Measurement(Coordinate(1.0), [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Measurement(Coordinate(1.0), [1.0, float("inf")])

    def test_relative_deviations_zero_mean(self):
        m = Measurement(Coordinate(2.0), [9.0, 10.0, 11.0])
        dev = m.relative_deviations()
        assert np.mean(dev) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(dev, [-0.1, 0.0, 0.1])

    def test_single_repetition_deviation_is_zero(self):
        m = Measurement(Coordinate(2.0), [5.0])
        np.testing.assert_array_equal(m.relative_deviations(), [0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=8))
    def test_deviations_sum_to_zero(self, values):
        m = Measurement(Coordinate(1.0), values)
        assert float(np.sum(m.relative_deviations())) == pytest.approx(0.0, abs=1e-9)


class TestMedianTable:
    def test_shapes_and_values(self):
        ms = [
            Measurement(Coordinate(2.0, 10.0), [1.0, 3.0]),
            Measurement(Coordinate(4.0, 10.0), [5.0]),
        ]
        points, medians = median_table(_kernel(ms))
        assert points.shape == (2, 2)
        np.testing.assert_allclose(medians, [2.0, 5.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median_table(Kernel("empty"))


def _measurements(seed, counts):
    """One measurement per repetition count, at increasing coordinates."""
    gen = np.random.default_rng(seed)
    return [
        Measurement(Coordinate(float(k + 1)), gen.lognormal(0.0, 2.0, size=count))
        for k, count in enumerate(counts)
    ]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestBatchedAggregation:
    """value_table and ParameterLine.values take medians in one call per
    repetition count; the values must be bitwise the per-measurement ones."""

    COUNTS = {
        "odd": [5] * 9 + [1, 3],
        "even": [4] * 9 + [2, 6],
        "mixed": [5, 4, 1, 2, 3, 5, 6, 4, 5, 2, 7, 8, 9, 12, 17],
    }

    @pytest.mark.parametrize("layout", sorted(COUNTS))
    @pytest.mark.parametrize("seed", range(5))
    def test_median_bitwise_per_measurement(self, layout, seed):
        ms = _measurements(seed, self.COUNTS[layout])
        kernel = _kernel(ms)
        expected = _bits([m.median for m in ms])
        _, values = value_table(kernel, "median")
        (line,) = parameter_lines(kernel, 1, min_points=1)
        np.testing.assert_array_equal(_bits(values), expected)
        np.testing.assert_array_equal(_bits(line.values("median")), expected)
        np.testing.assert_array_equal(_bits(line.medians), expected)

    @pytest.mark.parametrize("aggregation", ["mean", "min"])
    def test_mean_and_min_unchanged(self, aggregation):
        ms = _measurements(3, self.COUNTS["mixed"])
        kernel = _kernel(ms)
        expected = _bits([m.aggregate(aggregation) for m in ms])
        _, values = value_table(kernel, aggregation)
        np.testing.assert_array_equal(_bits(values), expected)
        (line,) = parameter_lines(kernel, 1, min_points=1)
        np.testing.assert_array_equal(_bits(line.values(aggregation)), expected)

    def test_unknown_aggregation_still_raises(self):
        kernel = _kernel(_measurements(0, [3, 4]))
        with pytest.raises(ValueError, match="unknown aggregation 'mediam'"):
            value_table(kernel, "mediam")
        (line,) = parameter_lines(kernel, 1, min_points=1)
        with pytest.raises(ValueError, match="unknown aggregation 'mediam'"):
            line.values("mediam")
