"""The stacked exponent basis of a batch: bitwise the per-column basis.

``FastMultiParameterSearch.prescored`` and ``FastSingleParameterSearch.prescored``
build one exponent basis per column length over the stacked columns of a
whole batch (:func:`repro.regression.fast_multi.stacked_bases`). That is
only sound if ``np.power`` and ``np.log2`` on a ``(K, n)`` stack give, row
for row, the bits they give on each column alone. Which SIMD loop numpy
runs depends on the CPU, so this file is the guard: it compares the bits on
the host that runs it, for every exponent pair of the search space, and the
models the stacked searches select against the unstacked ones.
"""

import numpy as np
import pytest

from repro.modeling.candidates import FullSearchGenerator
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.regression.fast_multi import FastMultiParameterSearch, _exponent_basis, stacked_bases
from repro.regression.fast_single import FastSingleParameterSearch
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator

from tests.regression.test_fast_multi import assert_same_model, dnn_like_tasks, scored_designs
from tests.regression.test_fast_single import random_case


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _columns(seed=20210517):
    """Columns of several lengths and point sets, strided ones among them."""
    gen = as_generator(seed)
    grid = gen.uniform(1.0, 4096.0, size=(125, 3))
    columns = [random_sequence(5, None, gen) for _ in range(40)]
    columns += [gen.uniform(1e-3, 1e5, size=5) for _ in range(20)]
    columns += [random_sequence(7, None, gen) for _ in range(10)]
    columns += [grid[:, 0], grid[:, 2], gen.integers(2, 2**15, size=125).astype(float)]
    columns += [np.array([1.0, 2.0, 1.0, 4.0, 8.0]), gen.uniform(1e-6, 1.0, size=7)]
    return columns


class TestStackedBasis:
    def test_stack_rows_match_per_row_bits(self):
        """``_exponent_basis`` on a ``(K, n)`` stack, row for row."""
        for n in (5, 7, 125):
            rows = [x for x in _columns() if x.shape[0] == n]
            stack = np.stack(rows)
            stacked = _exponent_basis(stack, EXPONENT_PAIRS)
            for r, x in enumerate(rows):
                alone = _exponent_basis(x, EXPONENT_PAIRS)
                for pair in EXPONENT_PAIRS:
                    np.testing.assert_array_equal(
                        _bits(stacked[pair][r]), _bits(alone[pair]), err_msg=f"{n} {r} {pair}"
                    )

    def test_stacked_bases_match_per_column_bits(self):
        """Each column's rows of :func:`stacked_bases`, over the union of
        the pairs every column asks for, are its own basis."""
        columns = _columns()
        gen = as_generator(3)
        wanted = [
            [EXPONENT_PAIRS[int(i)] for i in gen.choice(len(EXPONENT_PAIRS), 6, replace=False)]
            for _ in columns
        ]
        wanted[0] = list(EXPONENT_PAIRS)
        blocks = stacked_bases(columns, wanted)
        assert all(block is not None for block in blocks)
        for x, pairs, block in zip(columns, wanted, blocks):
            alone = _exponent_basis(x, pairs)
            assert block.shape == (len(pairs), x.size)
            for row, pair in zip(block, pairs):
                np.testing.assert_array_equal(_bits(row), _bits(alone[pair]))

    @pytest.mark.parametrize("bad", [0.0, -4.0, np.nan])
    def test_refused_column_is_left_to_its_owner(self, bad):
        good = [np.array([2.0, 4.0, 8.0, 16.0, 32.0]), np.array([3.0, 5.0, 7.0, 9.0, 11.0])]
        column = np.array([2.0, 4.0, bad, 16.0, 32.0])
        blocks = stacked_bases([good[0], column, good[1]], [EXPONENT_PAIRS] * 3)
        assert blocks[1] is None
        for x, block in zip(good, (blocks[0], blocks[2])):
            alone = _exponent_basis(x, EXPONENT_PAIRS)
            for row, pair in zip(block, EXPONENT_PAIRS):
                np.testing.assert_array_equal(_bits(row), _bits(alone[pair]))

    def test_non_float_column_is_left_to_its_owner(self):
        columns = [np.arange(1, 6), [1.0, 2.0, 3.0], np.ones(5)]
        blocks = stacked_bases(columns, [EXPONENT_PAIRS, EXPONENT_PAIRS, []])
        assert blocks == [None, None, None]


def _full_search_jobs(count=12, seed=5):
    full = FullSearchGenerator()._single
    jobs = []
    for s in range(count):
        xs, values = random_case(seed + s)
        jobs.append((full, xs[:, None], values))
    return jobs


class TestPrescoredMatchesScore:
    @pytest.mark.parametrize("n_params", [1, 3])
    def test_multi_parameter_search(self, n_params):
        """Models, coefficients and CV-SMAPE of a stacked batch are those of
        each job scored alone, at m = 1 (the full search) and m = 3."""
        if n_params == 1:
            jobs = _full_search_jobs()
        else:
            jobs = [(tuple(h), p, v) for h, p, v in dnn_like_tasks(shapes=((3, 6),))]
        search = FastMultiParameterSearch()
        stacked = search.prescored(jobs)
        assert len(stacked._scored) == len(jobs)
        for job in jobs:
            mine, alone = stacked.score(*job), search.score(*job)
            assert scored_designs(mine) == scored_designs(alone)
            assert_same_model(stacked.choose(mine), search.choose(alone))

    def test_single_parameter_search(self):
        """Every line of a stacked batch selects what it selects alone,
        across line lengths."""
        search = FastSingleParameterSearch(EXPONENT_PAIRS)
        line_sets = [
            [random_case(seed, n_points=n) for n in (5, 6, 9)] for seed in range(8)
        ]
        stacked = search.prescored(line_sets)
        assert len(stacked._scored) == 24
        for lines in line_sets:
            for xs, values in lines:
                assert_same_model(stacked.select(xs, values), search.select(xs, values))

    def test_refused_kernel_raises_its_own_error(self):
        jobs = _full_search_jobs(3)
        full, points, values = jobs[1]
        points = points.copy()
        points[2, 0] = -1.0
        jobs[1] = (full, points, values)
        stacked = FastMultiParameterSearch().prescored(jobs)
        assert len(stacked._scored) == 2
        with pytest.raises(ValueError, match="positive parameter values only"):
            stacked.score(*jobs[1])
        for job in (jobs[0], jobs[2]):
            assert_same_model(
                stacked.choose(stacked.score(*job)), FastMultiParameterSearch().select(*job)
            )
