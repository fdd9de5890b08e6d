"""Fused stacked training: bit-identity with per-network ``Sequential.fit``.

The fused trainer exists purely as a performance optimization -- stacking
K clusters' retraining into batched matmuls. Its whole contract is that it
changes nothing: every member network's weights must equal, bit for bit,
what a separate ``fit`` call with the same data and RNG stream would have
produced.
"""

import numpy as np
import pytest

from repro.nn.activations import Tanh
from repro.nn.layers import Dense, Layer
from repro.nn.network import Sequential
from repro.nn.fused import fit_fused


def _net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(6, 16, rng=rng), Tanh(), Dense(16, 4, rng=rng)])


def _dataset(seed, n=96):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6)).astype(np.float32)
    y = rng.integers(0, 4, size=n)
    return x, y


def _fit_reference(base, datasets, seeds, epochs=2, batch_size=32, lr=0.002):
    """Per-network fits: the ground truth the fused path must reproduce."""
    adapted = []
    for (x, y), seed in zip(datasets, seeds):
        net = base.copy()
        net.fit(
            x,
            y,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=lr,
            rng=np.random.default_rng(seed),
        )
        adapted.append(net)
    return adapted


class TestBitIdentity:
    def test_fused_equals_separate_fits(self):
        base = _net(seed=7)
        seeds = [11, 22, 33]
        datasets = [_dataset(s) for s in seeds]
        reference = _fit_reference(base, datasets, seeds)

        fused = [base.copy() for _ in seeds]
        fit_fused(
            fused,
            [x for x, _ in datasets],
            [y for _, y in datasets],
            epochs=2,
            batch_size=32,
            learning_rate=0.002,
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        for ref, got in zip(reference, fused):
            for w_ref, w_got in zip(ref.get_weights(), got.get_weights()):
                assert w_ref.dtype == w_got.dtype
                np.testing.assert_array_equal(w_ref, w_got)
            assert ref.weights_digest() == got.weights_digest()

    def test_ragged_batch_tail(self):
        """A sample count not divisible by the batch size must still match."""
        base = _net(seed=3)
        seeds = [1, 2]
        datasets = [_dataset(s, n=70) for s in seeds]  # 70 = 2*32 + 6
        reference = _fit_reference(base, datasets, seeds, epochs=1)
        fused = [base.copy(), base.copy()]
        fit_fused(
            fused,
            [x for x, _ in datasets],
            [y for _, y in datasets],
            epochs=1,
            batch_size=32,
            learning_rate=0.002,
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        for ref, got in zip(reference, fused):
            assert ref.weights_digest() == got.weights_digest()

    def test_histories_match_per_network_fit(self):
        base = _net(seed=5)
        x, y = _dataset(9)
        ref = base.copy()
        history = ref.fit(
            x, y, epochs=2, batch_size=32, learning_rate=0.002,
            rng=np.random.default_rng(9),
        )
        (fused_history,) = fit_fused(
            [base.copy()], [x], [y], epochs=2, batch_size=32,
            learning_rate=0.002, rngs=[np.random.default_rng(9)],
        )
        assert fused_history.loss == pytest.approx(history.loss, abs=0.0)
        assert fused_history.accuracy == pytest.approx(history.accuracy, abs=0.0)


class TestValidation:
    def test_mismatched_architectures_rejected(self):
        a = _net(seed=0)
        rng = np.random.default_rng(1)
        b = Sequential([Dense(6, 8, rng=rng), Tanh(), Dense(8, 4, rng=rng)])
        x, y = _dataset(0)
        with pytest.raises(ValueError):
            fit_fused([a, b], [x, x], [y, y], rngs=[np.random.default_rng(0)] * 2)

    def test_length_mismatch_rejected(self):
        net = _net()
        x, y = _dataset(0)
        with pytest.raises(ValueError):
            fit_fused([net], [x, x], [y, y])

    def test_unequal_sample_counts_rejected(self):
        a, b = _net(seed=0), _net(seed=0)
        x1, y1 = _dataset(1, n=64)
        x2, y2 = _dataset(2, n=96)
        with pytest.raises(ValueError):
            fit_fused([a, b], [x1, x2], [y1, y2])

    def test_foreign_layer_rejected(self):
        class Identity(Layer):
            def forward(self, x, training=False):
                return x

        rng = np.random.default_rng(0)
        net = Sequential([Dense(6, 4, rng=rng), Identity()])
        x, y = _dataset(0)
        with pytest.raises(TypeError, match="cannot run a Identity layer"):
            fit_fused([net], [x], [y], rngs=[np.random.default_rng(0)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_fused([], [], [])
