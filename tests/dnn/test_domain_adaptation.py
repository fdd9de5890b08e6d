import hashlib

import numpy as np
import pytest

from repro.dnn.config import NetworkConfig
from repro.dnn.domain_adaptation import AdaptationTask, adapt_network, adapt_network_for_key
from repro.dnn.factory import build_network
from repro.experiment.experiment import Experiment
from repro.noise.injection import UniformNoise
from repro.pmnf.function import PerformanceFunction
from repro.pmnf.terms import ExponentPair
from repro.synthesis.measurements import synthesize_experiment

X1 = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
X2 = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
PINNED_ADAPTED_SHA256 = "2a9ea1fb72e77861aef9205fabc5f82d841e8c0929dfb97f78cb8c6f262fb58a"


def experiment(noise_level=0.3, reps=5) -> Experiment:
    f = PerformanceFunction.single_term(2.0, 1.0, [ExponentPair(1, 0), ExponentPair(1, 0)])
    return synthesize_experiment(f, [X1, X2], UniformNoise(noise_level), reps, rng=0)


class TestAdaptationTask:
    def test_from_kernel_extracts_value_sets(self):
        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        assert task.parameter_value_sets == (tuple(X1), tuple(X2))
        assert task.repetitions == 5

    def test_noise_range_reflects_measurements(self):
        task = AdaptationTask.from_kernel(experiment(0.5).only_kernel(), 2)
        lo, hi = task.noise_range
        assert 0.0 <= lo < hi <= 0.7

    def test_from_experiment_pools_noise(self):
        exp = experiment(0.4)
        points = exp.kernel("synthetic").table.points
        exp.create_kernel("calm").add_rows(points, np.ones((len(points), 3)))
        task = AdaptationTask.from_experiment(exp)
        assert task.noise_range[0] == 0.0  # the calm kernel contributes zero

    def test_hashable_for_memoization(self):
        a = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        b = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        assert a == b and len({a, b}) == 1

    def test_training_config_guards_degenerate_range(self):
        task = AdaptationTask(((4.0, 8.0, 16.0, 32.0, 64.0),), (0.0, 0.0), 1)
        cfg = task.training_config(samples_per_class=10)
        assert cfg.noise.hi > 0  # retraining still sees some noise


class TestAdaptNetwork:
    def test_returns_new_network(self, tiny_network):
        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        adapted = adapt_network(tiny_network, task, rng=0, samples_per_class=5)
        assert adapted is not tiny_network
        x = np.zeros((1, 11), dtype=np.float32)
        assert not np.allclose(adapted.predict_logits(x), tiny_network.predict_logits(x))

    def test_original_untouched(self, tiny_network):
        before = [w.copy() for w in tiny_network.get_weights()]
        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        adapt_network(tiny_network, task, rng=0, samples_per_class=5)
        for w_before, w_after in zip(before, tiny_network.get_weights()):
            np.testing.assert_array_equal(w_before, w_after)

    def test_deterministic(self, tiny_network):
        task = AdaptationTask.from_kernel(experiment().only_kernel(), 2)
        a = adapt_network(tiny_network, task, rng=9, samples_per_class=5)
        b = adapt_network(tiny_network, task, rng=9, samples_per_class=5)
        x = np.random.default_rng(0).random((4, 11)).astype(np.float32)
        np.testing.assert_array_equal(a.predict_logits(x), b.predict_logits(x))

    def test_adapted_weights_pinned(self):
        """The SHA-256 of one key's adapted weights, fixed when the training
        set was still built one sample at a time. It moves when the
        training-set draw order (or anything else on the adaptation path)
        changes, which re-keys every adapted network and the pretrained
        cache, so such a change must update the pin on purpose."""
        network = build_network(NetworkConfig(hidden_sizes=(16,), name="pin"), rng=3)
        key = AdaptationTask((tuple(X1),), (0.07, 0.32), 5).key()
        adapted = adapt_network_for_key(network, key, samples_per_class=20)
        digest = hashlib.sha256()
        for weights in adapted.get_weights():
            digest.update(np.ascontiguousarray(weights).tobytes())
        assert digest.hexdigest() == PINNED_ADAPTED_SHA256

    @pytest.mark.slow
    def test_adaptation_improves_on_task_distribution(self, tiny_network):
        """Retraining on the task's sequences must improve classification on
        exactly that distribution -- the point of domain adaptation."""
        from repro.nn.metrics import top_k_accuracy
        from repro.synthesis.training import generate_training_set

        task = AdaptationTask(
            ((8.0, 64.0, 512.0, 4096.0, 32768.0),), (0.05, 0.3), 5
        )
        adapted = adapt_network(
            tiny_network, task, rng=0, samples_per_class=400, epochs=3
        )
        x, y = generate_training_set(task.training_config(40), rng=77)
        base = top_k_accuracy(tiny_network.predict_proba(x), y, 3)
        tuned = top_k_accuracy(adapted.predict_proba(x), y, 3)
        assert tuned > base
