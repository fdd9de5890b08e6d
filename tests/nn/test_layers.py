import numpy as np
import pytest

from repro.nn.layers import Dense


def numeric_gradient(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = f()
        x[idx] = orig - eps
        minus = f()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestDenseForward:
    def test_affine_map(self):
        layer = Dense(2, 3, rng=0, dtype=np.float64)
        layer.params["W"] = np.arange(6, dtype=float).reshape(2, 3)
        layer.params["b"] = np.array([1.0, 1.0, 1.0])
        out = layer.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [[1 + 6, 1 + 9, 1 + 12]])

    def test_shape_validation(self):
        layer = Dense(4, 2, rng=0)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 5)))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_output_size(self):
        assert Dense(3, 7).output_size(3) == 7
        with pytest.raises(ValueError):
            Dense(3, 7).output_size(4)


class TestDenseBackward:
    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng=rng, dtype=np.float64)
        x = rng.normal(size=(6, 4))
        target_grad = rng.normal(size=(6, 3))

        def loss():
            return float(np.sum(layer.forward(x) * target_grad))

        layer.forward(x, training=True)
        din = layer.backward(target_grad)
        np.testing.assert_allclose(
            layer.grads["W"], numeric_gradient(loss, layer.params["W"]), rtol=1e-5, atol=1e-7
        )
        np.testing.assert_allclose(
            layer.grads["b"], numeric_gradient(loss, layer.params["b"]), rtol=1e-5, atol=1e-7
        )
        # Input gradient: d(sum(out*g))/dx = g @ W.T
        np.testing.assert_allclose(din, target_grad @ layer.params["W"].T, rtol=1e-6)

    def test_backward_without_forward_raises(self):
        layer = Dense(2, 2, rng=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_inference_forward_does_not_cache(self):
        layer = Dense(2, 2, rng=0)
        layer.forward(np.zeros((1, 2)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_cache_cleared_after_backward(self):
        layer = Dense(2, 2, rng=0)
        layer.forward(np.zeros((1, 2)), training=True)
        layer.backward(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))


class TestSpec:
    def test_spec_roundtrip_fields(self):
        layer = Dense(5, 7)
        spec = layer.spec()
        assert spec == {
            "type": "Dense",
            "in_features": 5,
            "out_features": 7,
            "initializer": "glorot_uniform",
            "dtype": "float32",
        }
