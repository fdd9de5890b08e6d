"""The raw-word replay against the ``Generator`` calls it mirrors.

Each case makes a sequence of calls on one generator and replays it on
another at the same state; values and the final ``bit_generator.state``
(32-bit buffer included) must be equal.
"""

import numpy as np
import pytest

from repro.util.pcg64_replay import PCG64Replay, uniform


def _pair(seed, prelude=None):
    """Two generators at one state; ``prelude`` runs on both first."""
    gen, replayed = np.random.default_rng(seed), np.random.default_rng(seed)
    if prelude is not None:
        prelude(gen)
        prelude(replayed)
    return gen, replayed


def _double(draws, lo, hi):
    at = draws.take(1)
    return float(uniform(lo, hi, draws.words[at]))


def _replay_integers(replayed, bounds, size_hint=4):
    draws = PCG64Replay(replayed, size_hint)
    values = [draws.integers(lo, hi) for lo, hi in bounds]
    draws.commit()
    return values


#: Ranges that reject on about half the draws, at the edge of the 32-bit
#: path (2**32 values, no Lemire step), and small natural ones.
REJECTING = [(0, 2**31 + 1), (5, 5 + 2**31 + 7), (-3, 2**31)]
EDGE = [(0, 2**32), (-(2**31), 2**31)]
SMALL = [(0, 3), (1, 6), (0, 2), (10, 11)]


class TestIntegers:
    @pytest.mark.parametrize(
        "bounds",
        [REJECTING * 40, EDGE * 20, SMALL * 30, (SMALL + REJECTING + EDGE) * 15],
        ids=["rejecting", "edge", "small", "mixed"],
    )
    def test_sequences_equal_generator(self, bounds):
        for seed in range(4):
            gen, replayed = _pair(seed)
            expected = [int(gen.integers(lo, hi)) for lo, hi in bounds]
            assert _replay_integers(replayed, bounds) == expected
            assert replayed.bit_generator.state == gen.bit_generator.state

    def test_rejection_loop_runs(self):
        """About half the draws on a range of 2**31 + 1 values reject, so
        these sequences exercise Lemire's loop, not just its fast path."""
        draws = PCG64Replay(np.random.default_rng(0), 4)
        for _ in range(200):
            draws.integers(0, 2**31 + 1)
        halves_drawn = 2 * draws.position
        assert halves_drawn > 300

    def test_buffered_half_at_entry(self):
        """An odd number of 32-bit draws leaves the high half buffered; the
        replay takes it before a fresh word, as numpy does."""
        bounds = SMALL * 5 + REJECTING * 5
        gen, replayed = _pair(3, prelude=lambda g: g.integers(0, 9))
        assert gen.bit_generator.state["has_uint32"] == 1
        expected = [int(gen.integers(lo, hi)) for lo, hi in bounds]
        assert _replay_integers(replayed, bounds) == expected
        assert replayed.bit_generator.state == gen.bit_generator.state

    def test_one_value_range_draws_nothing(self):
        gen, replayed = _pair(5, prelude=lambda g: g.integers(0, 9))
        entry = gen.bit_generator.state
        assert int(gen.integers(0, 1)) == 0
        assert gen.bit_generator.state == entry
        assert _replay_integers(replayed, [(0, 1), (7, 8)]) == [0, 7]
        assert replayed.bit_generator.state == entry

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (0, 2**32 + 1, r"\[0, 4294967297\) has more than 2\*\*32 values.*64-bit path"),
            (3, 3, r"\[3, 3\) is empty"),
        ],
        ids=["64_bit_path", "empty"],
    )
    def test_ranges_it_cannot_mirror_are_refused(self, lo, hi, message):
        draws = PCG64Replay(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match=message):
            draws.integers(lo, hi)

    def test_other_bit_generators_refused(self):
        with pytest.raises(ValueError, match="mirrors PCG64, not Philox"):
            PCG64Replay(np.random.Generator(np.random.Philox(0)), 4)


class TestUniform:
    @pytest.mark.parametrize(
        "lo, hi",
        [(0.001, 1000.0), (0.0, 2.85), (-0.35, 0.35), (3.0, 3.0)],
        ids=["coefficients", "level_band", "symmetric", "degenerate"],
    )
    def test_scalar_and_sized_draws_equal_generator(self, lo, hi):
        gen, replayed = _pair(11)
        expected_scalar = [float(gen.uniform(lo, hi)) for _ in range(20)]
        expected_block = gen.uniform(lo, hi, size=(7, 3))
        draws = PCG64Replay(replayed, 8)  # a short hint: the block must grow
        scalar = [_double(draws, lo, hi) for _ in range(20)]
        at = draws.take(21)
        block = uniform(lo, hi, draws.words[at : at + 21]).reshape(7, 3)
        draws.commit()
        assert scalar == expected_scalar
        assert block.tobytes() == expected_block.tobytes()
        assert replayed.bit_generator.state == gen.bit_generator.state

    def test_broadcast_bounds_equal_per_row_calls(self):
        gen, replayed = _pair(12)
        halves = np.array([0.1, 0.7, 1.4])
        expected = np.stack([gen.uniform(-h, h, size=4) for h in halves])
        draws = PCG64Replay(replayed, 12)
        at = draws.take(12)
        got = uniform(-halves[:, None], halves[:, None], draws.words[at : at + 12].reshape(3, 4))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "lo, hi", [(0.001, np.inf), (2.0, -1.0), (0.0, np.nan)], ids=["infinite", "reversed", "nan"]
    )
    def test_ranges_numpy_refuses_are_refused(self, lo, hi):
        with pytest.raises((ValueError, OverflowError)):
            np.random.default_rng(0).uniform(lo, hi)
        with pytest.raises(ValueError, match=r"uniform range \[.*\] is reversed or not finite"):
            uniform(lo, hi, np.zeros(1, dtype=np.uint64))


def test_interleaved_calls_keep_the_buffer_across_doubles():
    """A 32-bit half buffered before doubles is the next 32-bit draw after
    them: doubles take whole words and leave the buffer alone."""
    for seed in range(6):
        gen, replayed = _pair(seed, prelude=(lambda g: g.integers(0, 5)) if seed % 2 else None)
        expected = []
        for _ in range(60):
            expected.append(int(gen.integers(0, 3)))
            expected.append(float(gen.uniform(0.001, 1000.0)))
            expected.append(int(gen.integers(1, 6)))
            expected.append(float(gen.uniform(0.0, 0.5)))
            expected.append(gen.uniform(-0.2, 0.2, size=5).tobytes())
            expected.append(int(gen.integers(0, 2**31 + 1)))
        draws = PCG64Replay(replayed, 16)
        got = []
        for _ in range(60):
            got.append(draws.integers(0, 3))
            got.append(_double(draws, 0.001, 1000.0))
            got.append(draws.integers(1, 6))
            got.append(_double(draws, 0.0, 0.5))
            at = draws.take(5)
            got.append(uniform(-0.2, 0.2, draws.words[at : at + 5]).tobytes())
            got.append(draws.integers(0, 2**31 + 1))
        draws.commit()
        assert got == expected
        assert replayed.bit_generator.state == gen.bit_generator.state
