"""The per-column exponent basis of the fast searches.

Both fast searches evaluate their term columns through one exponent basis
per parameter column instead of one :meth:`CompoundTerm.evaluate` call per
term. The fast/reference equivalence suites only hold if every basis column
is bitwise the term's own evaluation, on every input layout the searches
see, and if a non-positive parameter value is refused exactly as the
per-term evaluation refused it.
"""

import numpy as np
import pytest

from repro.experiment.experiment import Kernel
from repro.experiment.measurement import Coordinate, Measurement
from repro.modeling.candidates import FullSearchGenerator
from repro.modeling.pipeline import ModelingPipeline
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm
from repro.regression.fast_multi import FastMultiParameterSearch, _exponent_basis
from repro.regression.fast_single import FastSingleParameterSearch
from repro.regression.multi_parameter import combination_hypotheses

POSITIVE_ONLY = "positive parameter values only"


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_basis_bitwise(x):
    with np.errstate(over="ignore", invalid="ignore"):
        basis = _exponent_basis(x, EXPONENT_PAIRS)
        expected = {pair: CompoundTerm.from_pair(pair).evaluate(x) for pair in EXPONENT_PAIRS}
    assert list(basis) == list(EXPONENT_PAIRS)
    for pair in EXPONENT_PAIRS:
        assert np.array_equal(basis[pair], expected[pair], equal_nan=True), pair
        np.testing.assert_array_equal(_bits(basis[pair]), _bits(expected[pair]), err_msg=str(pair))


def _inputs():
    gen = np.random.default_rng(20210517)
    points = gen.uniform(1.0, 4096.0, size=(125, 3))
    return {
        "random": gen.uniform(1.0, 1e5, size=64),
        "random-integers": gen.integers(2, 2**15, size=25).astype(float),
        "strided-0": points[:, 0],
        "strided-2": points[:, 2],
        "one": np.array([1.0, 2.0, 1.0, 4.0, 8.0]),
        "below-one": gen.uniform(1e-6, 1.0, size=40),
        "overflow": np.array([2.0, 1e100, 1e103, 1e110, 1e200, 1e300]),
    }


class TestBasisBitIdentity:
    @pytest.mark.parametrize("name", sorted(_inputs()))
    def test_every_pair_matches_evaluate(self, name):
        x = _inputs()[name]
        if name.startswith("strided"):
            assert not x.flags.c_contiguous
        _assert_basis_bitwise(x)

    def test_overflow_case_reaches_inf(self):
        x = _inputs()["overflow"]
        with np.errstate(over="ignore"):
            assert np.isinf(CompoundTerm(3).evaluate(x)).any()

    def test_duplicate_pairs_share_one_column(self):
        x = _inputs()["random"]
        basis = _exponent_basis(x, [EXPONENT_PAIRS[5], EXPONENT_PAIRS[5]])
        assert list(basis) == [EXPONENT_PAIRS[5]]


@pytest.fixture(params=[0.0, -4.0], ids=["zero", "negative"])
def bad_value(request):
    return request.param


def _column(bad_value):
    return np.array([2.0, 4.0, bad_value, 16.0, 32.0, 64.0])


class TestPositivityCheck:
    def test_fast_single_select(self, bad_value):
        search = FastSingleParameterSearch(EXPONENT_PAIRS)
        xs = _column(bad_value)
        with pytest.raises(ValueError, match=POSITIVE_ONLY):
            search.select(xs, np.linspace(1.0, 6.0, xs.size))

    def test_fast_multi_score(self, bad_value):
        gen = np.random.default_rng(0)
        points = gen.uniform(2.0, 64.0, size=(12, 2))
        points[3, 1] = bad_value
        hypotheses = combination_hypotheses([CompoundTerm(1), CompoundTerm(2, 1)])
        with pytest.raises(ValueError, match=POSITIVE_ONLY):
            FastMultiParameterSearch().score(hypotheses, points, gen.uniform(1.0, 2.0, 12))

    def test_pipeline_model_kernel(self, bad_value):
        """A coordinate built without validation -- as a caller handing over
        raw arrays could -- is refused by the fit stage, not modeled."""
        kernel = Kernel("raw")
        for x in _column(bad_value):
            coordinate = Coordinate.__new__(Coordinate)
            coordinate._values = (float(x),)
            kernel.add(Measurement(coordinate, [1.0 + abs(x), 1.5 + abs(x)]))
        pipeline = ModelingPipeline(FullSearchGenerator())
        with pytest.raises(ValueError, match=POSITIVE_ONLY):
            pipeline.model_kernel(kernel, 1)
