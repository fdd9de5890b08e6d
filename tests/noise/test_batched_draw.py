"""The batched-draw contract of ``NoiseModel.apply_rows``.

Synthesis perturbs a whole kernel with one ``apply_rows`` call. For every
registered noise spec that call must equal one ``apply`` call per row, in
row order, bit for bit, and leave the generator in the same state -- the
per-point ``Generator`` call order the golden serializations pin. A spec
registered later is covered without editing this file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.noise.injection import NoiseModel
from tests.synthesis.registry_models import registered_noise_models

SHAPES = [(125, 5), (7, 1), (3, 2), (1, 6), (0, 5)]


def truth_rows(shape, seed: int) -> np.ndarray:
    """Rows of one repeated true value each, spanning six decades."""
    gen = np.random.default_rng(seed)
    truth = 10.0 ** gen.uniform(-3.0, 3.0, size=shape[0])
    return np.repeat(truth[:, None], shape[1], axis=1)


def per_point(model: NoiseModel, rows: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        out[i] = model.apply(np.full(row.shape, row[0]), gen)
    return out


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("name", sorted(registered_noise_models()))
def test_apply_rows_equals_per_point_apply(name, shape):
    model = registered_noise_models()[name]
    rows = truth_rows(shape, seed=len(name))
    batched_gen = np.random.default_rng(97)
    looped_gen = np.random.default_rng(97)
    batched = model.apply_rows(rows, batched_gen)
    looped = per_point(model, rows, looped_gen)
    assert batched.shape == rows.shape
    assert np.array_equal(batched, looped)
    assert batched.tobytes() == looped.tobytes()
    assert batched_gen.bit_generator.state == looped_gen.bit_generator.state


@pytest.mark.parametrize("name", sorted(registered_noise_models()))
def test_apply_rows_leaves_its_input_alone(name):
    model = registered_noise_models()[name]
    rows = truth_rows((9, 4), seed=3)
    before = rows.copy()
    model.apply_rows(rows, np.random.default_rng(5))
    assert rows.tobytes() == before.tobytes()


def test_default_is_the_per_point_loop():
    """A model that only defines ``apply`` gets the per-point fallback."""

    class CountingNoise(NoiseModel):
        def __init__(self):
            self.calls = 0

        def apply(self, values, rng=None):
            self.calls += 1
            return np.asarray(values, dtype=float) * (1.0 + rng.uniform(-0.1, 0.1))

        def nominal_level(self):
            return 0.2

    model = CountingNoise()
    rows = truth_rows((6, 3), seed=1)
    out = model.apply_rows(rows, np.random.default_rng(0))
    assert model.calls == 6
    assert np.array_equal(out, per_point(CountingNoise(), rows, np.random.default_rng(0)))
