import io
import json

import numpy as np
import pytest

from repro.nn.activations import Tanh
from repro.nn.layers import Dense
from repro.nn.losses import softmax_cross_entropy
from repro.nn.network import Sequential


def toy_problem(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6)).astype(np.float32)
    y = (x[:, 0] + x[:, 1] > 0).astype(int) + (x[:, 2] > 1).astype(int)
    return x, y


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(6, 32, rng=rng), Tanh(), Dense(32, 3, rng=rng)])


class TestForwardBackward:
    def test_end_to_end_gradient(self):
        """Full-network gradient check in float64."""
        rng = np.random.default_rng(1)
        net = Sequential(
            [Dense(4, 5, rng=rng, dtype=np.float64), Tanh(), Dense(5, 3, rng=rng, dtype=np.float64)]
        )
        x = rng.normal(size=(7, 4))
        y = np.array([0, 1, 2, 0, 1, 2, 0])
        out = net.forward(x, training=True)
        net.backward(softmax_cross_entropy(out, y)[1])
        W = net.layers[0].params["W"]
        G = net.layers[0].grads["W"].copy()
        eps = 1e-6
        for idx in [(0, 0), (2, 3), (3, 1)]:
            W[idx] += eps
            plus = softmax_cross_entropy(net.forward(x), y)[0]
            W[idx] -= 2 * eps
            minus = softmax_cross_entropy(net.forward(x), y)[0]
            W[idx] += eps
            numeric = (plus - minus) / (2 * eps)
            assert numeric == pytest.approx(float(G[idx]), rel=1e-4)

    def test_parameters_require_backward(self):
        net = small_net()
        net.forward(np.zeros((1, 6), dtype=np.float32), training=True)
        with pytest.raises(RuntimeError):
            net.parameters()

    def test_n_parameters(self):
        net = small_net()
        assert net.n_parameters() == 6 * 32 + 32 + 32 * 3 + 3


class TestFit:
    def test_loss_decreases(self):
        x, y = toy_problem()
        net = small_net()
        history = net.fit(x, y, epochs=20, batch_size=64, rng=0)
        assert history.loss[-1] < history.loss[0] * 0.7
        assert history.accuracy[-1] > 0.7

    def test_deterministic_given_seed(self):
        x, y = toy_problem()
        a = small_net(3)
        b = small_net(3)
        a.fit(x, y, epochs=2, rng=5)
        b.fit(x, y, epochs=2, rng=5)
        assert a.weights_digest() == b.weights_digest()

    def test_invalid_args(self):
        net = small_net()
        x, y = toy_problem(10)
        with pytest.raises(ValueError):
            net.fit(x, y, epochs=0)
        with pytest.raises(ValueError):
            net.fit(x, y[:-1])
        with pytest.raises(ValueError):
            net.fit(x, y[:, None])

    def test_default_optimizer_is_adamax(self):
        """The paper trains with AdaMax at 0.002; fit() defaults to it."""
        x, y = toy_problem(50)
        a, b = small_net(), small_net()
        history = a.fit(x, y, epochs=1, rng=0)
        b.fit(x, y, epochs=1, learning_rate=0.002, rng=0)
        assert history.epochs == 1
        assert a.weights_digest() == b.weights_digest()


class TestInference:
    def test_proba_rows_sum_to_one(self):
        x, _ = toy_problem(32)
        probs = small_net().predict_proba(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_single_vector_promoted(self):
        x, _ = toy_problem(1)
        assert small_net().predict_proba(x[0]).shape == (1, 3)

    def test_batched_equals_unbatched(self):
        x, _ = toy_problem(100)
        net = small_net()
        np.testing.assert_allclose(
            net.predict_logits(x, batch_size=7), net.predict_logits(x, batch_size=1000), rtol=1e-5
        )


class TestCheckpoint:
    def test_save_load_roundtrip(self):
        x, y = toy_problem(64)
        net = small_net()
        net.fit(x, y, epochs=2, rng=0)
        buf = io.BytesIO()
        net.save(buf)
        buf.seek(0)
        loaded = Sequential.load(buf)
        np.testing.assert_allclose(net.predict_logits(x), loaded.predict_logits(x), rtol=1e-6)

    def test_file_roundtrip(self, tmp_path):
        net = small_net()
        path = tmp_path / "net.npz"
        net.save(path)
        loaded = Sequential.load(path)
        assert repr(loaded) == repr(net)

    def test_suffixless_path_roundtrip(self, tmp_path):
        """``save`` to a string path without ``.npz`` must load back from
        the same path (NumPy silently appends the suffix on write)."""
        net = small_net()
        path = str(tmp_path / "checkpoint")
        net.save(path)
        assert (tmp_path / "checkpoint.npz").exists()
        loaded = Sequential.load(path)
        assert repr(loaded) == repr(net)

    def test_foreign_suffix_roundtrip(self, tmp_path):
        net = small_net()
        path = str(tmp_path / "net.ckpt")
        net.save(path)
        assert (tmp_path / "net.ckpt.npz").exists()
        loaded = Sequential.load(path)
        assert repr(loaded) == repr(net)

    def test_load_pre_normalization_checkpoint(self, tmp_path):
        """A suffix-less file written by other tools still loads."""
        import shutil

        net = small_net()
        net.save(tmp_path / "net.npz")
        shutil.move(tmp_path / "net.npz", tmp_path / "legacy")
        loaded = Sequential.load(tmp_path / "legacy")
        assert repr(loaded) == repr(net)

    @pytest.mark.parametrize("kind", ["ReLU", "Dropout"])
    def test_unknown_layer_type_named(self, kind):
        """A checkpoint naming a layer this package does not have is refused."""
        buf = io.BytesIO()
        spec = json.dumps([{"type": "Dense", "in_features": 2, "out_features": 2}, {"type": kind}])
        np.savez(
            buf,
            spec=np.frombuffer(spec.encode(), dtype=np.uint8),
            w0=np.zeros((2, 2), dtype=np.float32),
            w1=np.zeros(2, dtype=np.float32),
        )
        buf.seek(0)
        with pytest.raises(ValueError, match=f"unknown layer type '{kind}'"):
            Sequential.load(buf)

    def test_copy_is_independent(self):
        net = small_net()
        clone = net.copy()
        clone.layers[0].params["W"][:] = 0.0
        assert not np.allclose(net.layers[0].params["W"], 0.0)

    def test_set_weights_shape_checked(self):
        net = small_net()
        weights = net.get_weights()
        weights[0] = weights[0][:, :-1]
        with pytest.raises(ValueError):
            net.set_weights(weights)

    def test_set_weights_count_checked(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.set_weights(net.get_weights()[:-1])


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])
