import numpy as np
import pytest

from repro.nn.losses import softmax, softmax_cross_entropy


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(5, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)

    def test_stability_with_huge_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0, 0.0]]))
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs[0, :2], 0.5, rtol=1e-6)


def _value(logits, labels):
    return float(softmax_cross_entropy(logits, labels)[0])


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert _value(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_log_k(self):
        logits = np.zeros((3, 43))
        assert _value(logits, np.array([0, 21, 42])) == pytest.approx(np.log(43))

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        _, analytic = softmax_cross_entropy(logits, labels)
        numeric = np.zeros_like(logits)
        eps = 1e-6
        for i in range(4):
            for j in range(5):
                logits[i, j] += eps
                plus = _value(logits, labels)
                logits[i, j] -= 2 * eps
                minus = _value(logits, labels)
                logits[i, j] += eps
                numeric[i, j] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros((2, 1), dtype=int))

    def test_stacked_batches_equal_per_batch_calls(self):
        """A ``(K, B, C)`` stack gives each slice's loss and gradient bits."""
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(3, 6, 5)).astype(np.float32)
        labels = rng.integers(0, 5, size=(3, 6))
        losses, grads = softmax_cross_entropy(logits, labels)
        assert losses.shape == (3,)
        for k in range(3):
            loss_k, grad_k = softmax_cross_entropy(logits[k], labels[k])
            assert losses[k] == loss_k
            np.testing.assert_array_equal(grads[k], grad_k)
