import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment.experiment import Kernel
from repro.experiment.lines import parameter_lines
from repro.preprocessing.encoding import (
    INPUT_SIZE,
    MAX_POINTS,
    MIN_POINTS,
    SAMPLE_POSITIONS,
    assign_slots,
    encode_line,
    encode_lines,
    encode_parameter_line,
    normalize_positions,
)
from repro.synthesis.sequences import SequenceKind, random_sequence

POW2 = np.array([4.0, 8.0, 16.0, 32.0, 64.0])


class TestNormalizePositions:
    def test_unit_maximum(self):
        out = normalize_positions(POW2)
        assert out.max() == 1.0
        np.testing.assert_allclose(out, [1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])

    def test_scale_invariance(self):
        np.testing.assert_allclose(normalize_positions(POW2), normalize_positions(POW2 * 1000))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize_positions(np.array([0.0, 1.0]))


class TestAssignSlots:
    def test_power_of_two_lands_on_named_slots(self):
        """(4..64) normalizes to (1/16, 1/8, 1/4, 1/2, 1): exactly slots
        2, 3, 4, 6, 10 of the sampling grid -- the design the paper chose
        the positions for."""
        slots = assign_slots(normalize_positions(POW2))
        np.testing.assert_array_equal(slots, [2, 3, 4, 6, 10])

    def test_unique_slots(self):
        positions = normalize_positions(np.array([10.0, 20.0, 30.0, 40.0, 50.0]))
        slots = assign_slots(positions)
        assert len(set(slots)) == len(slots)

    def test_every_measurement_assigned(self):
        for seed in range(20):
            xs = random_sequence(11, None, seed)
            slots = assign_slots(normalize_positions(xs))
            assert np.all(slots >= 0)
            assert len(set(slots)) == 11

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            assign_slots(np.linspace(0.1, 1.0, 12))


class TestEncodeLine:
    def test_output_shape_and_masking(self):
        vec = encode_line(POW2, POW2 * 2.0)
        assert vec.shape == (INPUT_SIZE,)
        assert np.count_nonzero(vec) == 5  # others zero-masked

    def test_linear_function_encodes_flat(self):
        # v = 3x -> v/x = 3 -> normalized to 1 at every occupied slot.
        vec = encode_line(POW2, 3.0 * POW2)
        occupied = vec[vec != 0]
        np.testing.assert_allclose(occupied, 1.0)

    def test_scale_invariance(self):
        """Multiplying all measurements by a constant must not change the
        encoding -- the network sees shape, not magnitude."""
        values = 5.0 + POW2**1.5
        np.testing.assert_allclose(encode_line(POW2, values), encode_line(POW2, values * 1e4))

    def test_unsorted_input_handled(self):
        order = [3, 0, 4, 1, 2]
        np.testing.assert_allclose(
            encode_line(POW2[order], (2 * POW2)[order]), encode_line(POW2, 2 * POW2)
        )

    def test_enrichment_can_be_disabled(self):
        values = 5.0 + POW2**2
        assert not np.allclose(
            encode_line(POW2, values, enrich=True), encode_line(POW2, values, enrich=False)
        )

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            encode_line(POW2[:4], POW2[:4])

    def test_duplicate_positions_rejected(self):
        xs = np.array([4.0, 4.0, 8.0, 16.0, 32.0])
        with pytest.raises(ValueError, match="duplicate"):
            encode_line(xs, xs)

    def test_oversized_line_thinned(self):
        xs = np.arange(2.0, 2.0 + 20.0)
        vec = encode_line(xs, xs * 2)
        assert vec.shape == (INPUT_SIZE,)
        assert np.count_nonzero(vec) == MAX_POINTS

    @given(
        kind=st.sampled_from(list(SequenceKind)),
        seed=st.integers(min_value=0, max_value=5000),
        n=st.integers(min_value=MIN_POINTS, max_value=MAX_POINTS),
    )
    @settings(max_examples=60, deadline=None)
    def test_encoding_always_valid(self, kind, seed, n):
        """Any realistic measurement line yields a bounded, finite vector
        with one slot per measurement."""
        xs = random_sequence(n, kind, seed)
        values = 1.0 + xs**0.5
        vec = encode_line(xs, values)
        assert np.all(np.isfinite(vec))
        assert np.max(np.abs(vec)) <= 1.0 + 1e-12
        assert np.count_nonzero(vec) == n


class TestEncodeLines:
    @pytest.mark.parametrize("enrich", [True, False])
    @pytest.mark.parametrize(
        "xs",
        [POW2, POW2[[3, 0, 4, 1, 2]], np.arange(2.0, 22.0), random_sequence(11, None, 3)],
        ids=["pow2", "unsorted", "oversized", "eleven"],
    )
    def test_rows_equal_encode_line(self, xs, enrich):
        gen = np.random.default_rng(0)
        values = np.vstack(
            [
                gen.uniform(0.1, 1e3, size=(4, xs.size)),
                np.zeros(xs.size),  # scale 0: left unscaled
                -gen.uniform(0.1, 1e3, size=xs.size),
                np.full(xs.size, np.nan),
            ]
        )
        batched = encode_lines(xs, values, enrich=enrich)
        assert batched.shape == (values.shape[0], INPUT_SIZE)
        assert not np.any(batched[4])
        for row, line in zip(batched, values):
            assert row.tobytes() == encode_line(xs, line, enrich=enrich).tobytes()

    @pytest.mark.parametrize(
        "xs",
        [POW2[:4], np.array([4.0, 4.0, 8.0, 16.0, 32.0]), np.array([-4.0, 4.0, 8.0, 16.0, 32.0])],
        ids=["too_few", "duplicate", "nonpositive"],
    )
    def test_invalid_lines_raise_identical_errors(self, xs):
        with pytest.raises(ValueError) as single:
            encode_line(xs, xs)
        with pytest.raises(ValueError) as batched:
            encode_lines(xs, np.vstack([xs, xs]))
        assert str(batched.value) == str(single.value)

    def test_values_must_be_one_row_per_line(self):
        with pytest.raises(ValueError, match="one column per entry"):
            encode_lines(POW2, POW2)
        with pytest.raises(ValueError, match="one column per entry"):
            encode_lines(POW2, np.ones((2, 4)))


class TestEncodeParameterLine:
    def test_matches_manual_encoding(self):
        kern = Kernel("k")
        kern.add_rows(POW2[:, None], [[2.0 * x, 2.0 * x, 2.1 * x] for x in POW2])
        (line,) = parameter_lines(kern, 1)
        np.testing.assert_allclose(
            encode_parameter_line(line), encode_line(POW2, 2.0 * POW2)
        )


class TestSamplePositions:
    def test_eleven_positions(self):
        assert SAMPLE_POSITIONS.shape == (11,)
        assert SAMPLE_POSITIONS[0] == 1 / 64
        assert SAMPLE_POSITIONS[-1] == 1.0
        assert np.all(np.diff(SAMPLE_POSITIONS) > 0)
