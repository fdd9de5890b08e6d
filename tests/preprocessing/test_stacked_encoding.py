"""The batched encoding pass: bitwise the per-kernel encoding, ties included.

``DNNModeler.classify_batch`` encodes the lines of a whole batch with one
:func:`repro.preprocessing.encoding.encode_stacked` pass per line length
instead of one :func:`encode_line` per line. Every row must be the bits
``encode_line`` gives, and every slot assignment the one
:func:`assign_slots` gives -- including layouts where a distance tie makes
the greedy matching depend on the order ``np.argsort`` puts equal
distances in.
"""

import numpy as np
import pytest

from repro.dnn.modeler import DNNModeler
from repro.experiment.experiment import Kernel
from repro.preprocessing.encoding import (
    assign_slots,
    encode_line,
    encode_stacked,
    normalize_positions,
    stacked_slots,
)
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator

#: A layout whose middle point lies exactly halfway between two slots: the
#: default argsort assigns slots [5, 6, 8, 9, 10], a stable sort
#: [5, 6, 7, 9, 10].
TIED = (72.0, 102.0, 132.0, 162.0, 192.0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _layouts(n, count, seed):
    """Random layouts of ``n`` points, tied and grid-aligned ones among them."""
    gen = as_generator(seed)
    layouts = [random_sequence(n, None, gen) for _ in range(count)]
    layouts += [gen.integers(1, 65, size=n).astype(float) * 3.0 for _ in range(count)]
    grid = np.arange(1.0, 65.0)
    layouts += [np.sort(gen.choice(grid, size=n, replace=False)) for _ in range(count)]
    return [x for x in layouts if np.unique(x).size == n]


class TestStackedSlots:
    def test_tie_layout_keeps_the_default_argsort_order(self):
        positions = normalize_positions(np.array(TIED))
        np.testing.assert_array_equal(assign_slots(positions), [5, 6, 8, 9, 10])
        np.testing.assert_array_equal(stacked_slots(positions[None, :])[0], [5, 6, 8, 9, 10])

    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_every_row_is_assign_slots(self, n):
        layouts = _layouts(n, 300, n) + ([np.array(TIED)] if n == 5 else [])
        rows = np.stack([normalize_positions(x) for x in layouts])
        stacked = stacked_slots(rows)
        for positions, slots in zip(rows, stacked):
            np.testing.assert_array_equal(slots, assign_slots(positions))


class TestEncodeStacked:
    @pytest.mark.parametrize("n", [5, 6, 11, 14])
    def test_rows_match_encode_line_bits(self, n):
        gen = as_generator(n)
        layouts = _layouts(n, 60, 100 + n)
        if n == 5:
            layouts.append(np.array(TIED))
        xs = np.stack(layouts)
        values = gen.uniform(0.5, 1e4, size=xs.shape)
        # Unsorted layouts are sorted per row, as encode_line sorts them.
        shuffled = np.argsort(gen.uniform(size=xs.shape), axis=1)
        xs, values = np.take_along_axis(xs, shuffled, 1), np.take_along_axis(values, shuffled, 1)
        vectors, encoded = encode_stacked(xs, values)
        assert encoded.all()
        for row, (x, v) in enumerate(zip(xs, values)):
            np.testing.assert_array_equal(
                _bits(vectors[row]), _bits(encode_line(x, v)), err_msg=str(x)
            )

    def test_refused_rows_are_left_to_encode_line(self):
        good = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        duplicate, zero, infinite = good.copy(), good.copy(), good.copy()
        duplicate[2], zero[0], infinite[2] = 8.0, 0.0, np.inf
        rows = [good, good * 3, duplicate, zero, infinite]
        values = np.linspace(1.0, 9.0, 25).reshape(5, 5)
        vectors, encoded = encode_stacked(np.stack(rows), values)
        np.testing.assert_array_equal(encoded, [True, True, False, False, False])
        for row in (0, 1):
            expected = encode_line(rows[row], values[row])
            np.testing.assert_array_equal(_bits(vectors[row]), _bits(expected))
        for row in (2, 3):
            with pytest.raises(ValueError):
                encode_line(rows[row], values[row])
        assert not vectors[2:].any()

    def test_short_lines_are_refused(self):
        vectors, encoded = encode_stacked(np.ones((2, 4)).cumsum(axis=1), np.ones((2, 4)))
        assert not encoded.any() and not vectors.any()


def _kernel(name, xs, gen):
    kernel = Kernel(name)
    xs = np.asarray(xs, dtype=float)
    kernel.add_rows(xs[:, None], gen.uniform(1.0, 50.0, size=(xs.size, 3)) * xs[:, None])
    return kernel


class TestClassifyBatch:
    def test_batched_encoding_matches_encode_kernel(self, tiny_network):
        gen = as_generator(11)
        kernels = [_kernel(f"k{i}", x, gen) for i, x in enumerate(_layouts(5, 8, 4))]
        kernels += [_kernel("tied", TIED, gen), _kernel("long", random_sequence(9, None, gen), gen)]
        batched = DNNModeler(network=tiny_network, use_domain_adaptation=False)
        alone = DNNModeler(network=tiny_network, use_domain_adaptation=False)
        candidates = batched.classify_batch(kernels, 1)
        for kernel, found in zip(kernels, candidates):
            np.testing.assert_array_equal(
                _bits(batched.encode_kernel(kernel, 1)), _bits(alone.encode_kernel(kernel, 1))
            )
            assert found == alone.classify_lines(kernel, 1, tiny_network)
        # One miss per kernel on the batched pass, then hits.
        assert batched._encoding_cache.misses == len(kernels)
        assert batched._encoding_cache.hits == len(kernels)

    def test_unencodable_kernel_warns_and_leaves_the_others(self, tiny_network):
        gen = as_generator(12)
        kernels = [_kernel(f"k{i}", x, gen) for i, x in enumerate(_layouts(5, 4, 9))]
        short = _kernel("short", [4.0, 8.0, 16.0], gen)
        batch = [*kernels[:2], short, *kernels[2:]]
        modeler = DNNModeler(network=tiny_network, use_domain_adaptation=False)
        with pytest.warns(RuntimeWarning) as record:
            found = modeler.classify_batch(batch, 1)
        messages = [str(w.message) for w in record if w.category is RuntimeWarning]
        assert messages == [
            f"classify_batch: 1 of {len(batch)} kernel(s) could not be encoded and were "
            "skipped ('short'); model them individually for the full error"
        ]
        assert found[2] is None
        fresh = DNNModeler(network=tiny_network, use_domain_adaptation=False)
        clean = fresh.classify_batch(kernels, 1)
        assert found[:2] + found[3:] == clean
        with pytest.raises(ValueError, match="at least 5 are required"):
            modeler.encode_kernel(short, 1)

    def test_unknown_aggregation_warns_once_for_the_batch(self, tiny_network):
        gen = as_generator(13)
        kernels = [_kernel(f"k{i}", x, gen) for i, x in enumerate(_layouts(5, 1, 10)[:2])]
        modeler = DNNModeler(network=tiny_network, use_domain_adaptation=False, aggregation="avg")
        with pytest.warns(RuntimeWarning) as record:
            found = modeler.classify_batch(kernels, 1)
        messages = [str(w.message) for w in record if w.category is RuntimeWarning]
        assert messages == [
            "classify_batch: 2 of 2 kernel(s) could not be encoded and were "
            "skipped ('k0', 'k1'); model them individually for the full error"
        ]
        assert found == [None, None]
