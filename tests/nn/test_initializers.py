import numpy as np

from repro.nn.initializers import glorot_uniform, zeros


class TestGlorotUniform:
    def test_bounds(self):
        w = glorot_uniform(100, 50, rng=0)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)
        assert np.max(np.abs(w)) > limit * 0.9  # actually fills the range

    def test_shape_and_dtype(self):
        w = glorot_uniform(3, 4, rng=0)
        assert w.shape == (3, 4)
        assert w.dtype == np.float32

    def test_deterministic(self):
        np.testing.assert_array_equal(glorot_uniform(5, 5, rng=1), glorot_uniform(5, 5, rng=1))


class TestZeros:
    def test_zeros(self):
        w = zeros(4, dtype=np.float64)
        assert w.shape == (4,)
        assert w.dtype == np.float64
        assert np.all(w == 0)
