import numpy as np
import pytest

from repro.nn.optimizers import AdaMax


def minimize(optimizer, start, grad_fn, steps=300):
    """Drive a parameter vector toward the minimum of a quadratic."""
    param = np.array(start, dtype=float)
    for _ in range(steps):
        optimizer.step([(("p",), param, grad_fn(param))])
    return param


def quad_grad(param):
    return 2.0 * (param - 3.0)  # minimum at 3


class TestAdaMax:
    def test_converges_on_quadratic(self):
        param = minimize(AdaMax(0.2), [0.0], quad_grad, steps=500)
        np.testing.assert_allclose(param, 3.0, atol=1e-2)

    def test_step_bounded_by_learning_rate(self):
        """AdaMax's infinity-norm denominator bounds |step| by ~lr/(1-b1^t),
        making it robust to the 6-decade gradient scales of our data."""
        param = np.array([0.0])
        opt = AdaMax(0.01)
        opt.step([(("p",), param, np.array([1e9]))])
        assert abs(param[0]) <= 0.01 / (1 - 0.9) + 1e-9

    def test_infinity_norm_decays(self):
        opt = AdaMax(0.01, beta2=0.5)
        param = np.array([0.0])
        opt.step([(("p",), param, np.array([100.0]))])
        u_after_big = opt._u[("p",)].copy()
        opt.step([(("p",), param, np.array([0.0]))])
        assert opt._u[("p",)][0] == pytest.approx(u_after_big[0] * 0.5)

    def test_reset_clears_state(self):
        opt = AdaMax(0.01)
        param = np.array([0.0])
        opt.step([(("p",), param, np.array([1.0]))])
        opt.reset()
        assert opt.iterations == 0
        assert not opt._m and not opt._u


class TestCommon:
    def test_multiple_params_updated(self):
        opt = AdaMax()
        a, b = np.array([1.0]), np.array([2.0])
        opt.step([(("a",), a, np.array([1.0])), (("b",), b, np.array([1.0]))])
        assert a[0] < 1.0 and b[0] < 2.0

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            AdaMax(0.0)
