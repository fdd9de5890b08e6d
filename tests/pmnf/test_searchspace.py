from fractions import Fraction

import pytest

from repro.pmnf.searchspace import (
    CONSTANT_CLASS,
    EXPONENT_PAIRS,
    NUM_CLASSES,
    class_index,
    nearest_class,
    pair_for_class,
)
from repro.pmnf.terms import ExponentPair

F = Fraction


class TestSearchSpace:
    def test_exactly_43_classes(self):
        """Paper Sec. IV-D: the DNN predicts 43 classes."""
        assert NUM_CLASSES == 43
        assert len(set(EXPONENT_PAIRS)) == 43

    def test_block_membership(self):
        # Samples from each block of Eq. 2.
        for i, j in [(F(0), 0), (F(5, 2), 2), (F(3), 1), (F(11, 4), 0), (F(4, 5), 0)]:
            assert ExponentPair(i, j) in EXPONENT_PAIRS

    def test_excluded_combinations(self):
        # (3, 2) and (4/5, 1) are NOT in E.
        # Deliberately out-of-space: this test pins exactly which
        # combinations Eq. 2 excludes.
        assert ExponentPair(F(3), 2) not in EXPONENT_PAIRS
        # Deliberately out-of-space.
        assert ExponentPair(F(4, 5), 1) not in EXPONENT_PAIRS

    def test_ordered_by_growth(self):
        keys = [p.growth_key() for p in EXPONENT_PAIRS]
        assert keys == sorted(keys)

    def test_roundtrip(self):
        for k in range(NUM_CLASSES):
            assert class_index(pair_for_class(k)) == k

    def test_constant_class(self):
        assert pair_for_class(CONSTANT_CLASS).is_constant
        assert CONSTANT_CLASS == 0  # smallest growth

    def test_unknown_pair_raises(self):
        with pytest.raises(KeyError):
            # Deliberately out-of-space pair proving class_index rejects it.
            class_index(ExponentPair(F(7), 0))

    def test_nearest_class_exact(self):
        for k in (0, 10, 42):
            assert nearest_class(pair_for_class(k)) == k

    def test_nearest_class_snaps(self):
        # 0.9 with no log is nearest to i = 1 (distance 0.1) vs 4/5 (0.1) --
        # tie resolves to the smaller growth, i.e. 4/5.
        # Deliberately out-of-space pair: nearest_class exists precisely to
        # snap such pairs into E.
        snapped = pair_for_class(nearest_class(ExponentPair(F(9, 10), 0)))
        assert snapped.i == F(4, 5)

    def test_nearest_class_prefers_matching_log(self):
        snapped = pair_for_class(nearest_class(ExponentPair(F(1), 1)))
        assert (snapped.i, snapped.j) == (F(1), 1)
