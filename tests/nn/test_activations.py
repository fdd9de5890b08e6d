import numpy as np
import pytest

from repro.nn.activations import Tanh


def check_gradient(layer, x, eps=1e-6):
    """Numeric vs analytic gradient of sum(layer(x))."""
    layer.forward(x, training=True)
    analytic = layer.backward(np.ones_like(x))
    numeric = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = float(np.sum(layer.forward(x)))
        x[idx] = orig - eps
        minus = float(np.sum(layer.forward(x)))
        x[idx] = orig
        numeric[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


X = np.random.default_rng(0).normal(size=(4, 5)) * 2.0


class TestForwardValues:
    def test_tanh(self):
        np.testing.assert_allclose(Tanh().forward(X), np.tanh(X))


class TestGradients:
    def test_tanh_gradient(self):
        check_gradient(Tanh(), X.copy())

    def test_backward_requires_training_forward(self):
        t = Tanh()
        t.forward(X, training=False)
        with pytest.raises(RuntimeError):
            t.backward(np.ones_like(X))


class TestValidation:
    def test_stateless_params(self):
        assert Tanh().params == {}
