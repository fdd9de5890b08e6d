"""Training checkpoints: optimizer state, fit resume, atomic persistence."""

import numpy as np
import pytest

from repro.nn.activations import Tanh
from repro.nn.layers import Dense
from repro.nn.network import (
    Sequential,
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.nn.optimizers import AdaMax
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.deactivate()
    yield
    faults.deactivate()


def toy_problem(n=160, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6)).astype(np.float32)
    y = (x[:, 0] + x[:, 1] > 0).astype(int) + (x[:, 2] > 1).astype(int)
    return x, y


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(6, 16, rng=rng), Tanh(), Dense(16, 3, rng=rng)])


class TestOptimizerStateDict:
    def test_roundtrip_resumes_identically(self):
        """snapshot -> k more steps must equal restore -> k more steps."""
        rng = np.random.default_rng(3)
        param_a = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(6)]

        opt = AdaMax(0.01)
        for grad in grads[:3]:
            opt.step([(("l", "W"), param_a, grad)])
        state = opt.state_dict()
        param_b = param_a.copy()  # parameter value at snapshot time
        for grad in grads[3:]:
            opt.step([(("l", "W"), param_a, grad)])

        restored = AdaMax(0.5)  # the learning rate is restored too
        restored.load_state_dict(state)
        for grad in grads[3:]:
            restored.step([(("l", "W"), param_b, grad)])
        np.testing.assert_array_equal(param_a, param_b)

    def test_snapshot_is_isolated_from_later_steps(self):
        opt = AdaMax(0.01)
        param = np.ones((2, 2))
        opt.step([(("l", "W"), param, np.ones((2, 2)))])
        state = opt.state_dict()
        frozen = state["slots"]["m"][("l", "W")].copy()
        opt.step([(("l", "W"), param, 5 * np.ones((2, 2)))])
        np.testing.assert_array_equal(state["slots"]["m"][("l", "W")], frozen)

    def test_type_mismatch_rejected(self):
        state = {**AdaMax(0.05).state_dict(), "type": "SGD"}
        with pytest.raises(ValueError, match="'SGD'.*cannot be loaded into AdaMax"):
            AdaMax().load_state_dict(state)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "train.ckpt"
        save_training_checkpoint(path, {"epoch": 3, "weights": [np.arange(4.0)]})
        payload = load_training_checkpoint(path)
        assert payload["epoch"] == 3
        np.testing.assert_array_equal(payload["weights"][0], np.arange(4.0))

    def test_missing_file_means_start_fresh(self, tmp_path):
        assert load_training_checkpoint(tmp_path / "absent.ckpt") is None

    def test_version_mismatch_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "train.ckpt"
        path.write_bytes(pickle.dumps({"version": 99, "epoch": 1}))
        with pytest.raises(ValueError, match="found 99, supported 1"):
            load_training_checkpoint(path)


class TestFitResume:
    def test_interrupted_training_resumes_bit_identically(self, tmp_path):
        x, y = toy_problem()
        ckpt = tmp_path / "train.ckpt"

        straight = small_net()
        hist_straight = straight.fit(
            x, y, epochs=6, batch_size=32, learning_rate=0.01, rng=7
        )

        # "Crash" after epoch 3: the first fit checkpoints every epoch and
        # simply stops; the second resumes from the checkpoint file.
        interrupted = small_net()
        interrupted.fit(
            x, y, epochs=3, batch_size=32, learning_rate=0.01, rng=7,
            checkpoint_every=1, checkpoint_path=ckpt,
        )
        resumed = small_net(seed=99)  # init weights are irrelevant: restored
        hist_resumed = resumed.fit(
            x, y, epochs=6, batch_size=32, learning_rate=0.01, rng=7,
            resume_from=ckpt,
        )

        for w_a, w_b in zip(straight.get_weights(), resumed.get_weights()):
            np.testing.assert_array_equal(w_a, w_b)
        assert hist_straight.loss == hist_resumed.loss
        assert hist_straight.accuracy == hist_resumed.accuracy

    def test_checkpoint_with_early_stopping_entries_resumes(self, tmp_path):
        """A checkpoint in the earlier format, which also carried validation
        history and early-stopping bookkeeping, still resumes bit-identically."""
        x, y = toy_problem()
        ckpt = tmp_path / "train.ckpt"

        straight = small_net()
        hist_straight = straight.fit(x, y, epochs=6, batch_size=32, learning_rate=0.01, rng=7)

        small_net().fit(
            x, y, epochs=3, batch_size=32, learning_rate=0.01, rng=7,
            checkpoint_every=1, checkpoint_path=ckpt,
        )
        payload = load_training_checkpoint(ckpt)
        del payload["version"]
        payload["history"].update(val_loss=[], val_accuracy=[])
        payload.update(best_val=np.inf, best_weights=None, stale_epochs=0)
        save_training_checkpoint(ckpt, payload)

        resumed = small_net(seed=99)
        hist_resumed = resumed.fit(
            x, y, epochs=6, batch_size=32, learning_rate=0.01, rng=7, resume_from=ckpt
        )
        for w_a, w_b in zip(straight.get_weights(), resumed.get_weights()):
            np.testing.assert_array_equal(w_a, w_b)
        assert hist_straight.loss == hist_resumed.loss

    def test_resume_from_missing_checkpoint_starts_fresh(self, tmp_path):
        x, y = toy_problem()
        net = small_net()
        history = net.fit(
            x, y, epochs=2, batch_size=32, rng=0,
            resume_from=tmp_path / "absent.ckpt",
        )
        assert history.epochs == 2

    def test_fully_trained_checkpoint_short_circuits(self, tmp_path):
        x, y = toy_problem()
        ckpt = tmp_path / "train.ckpt"
        first = small_net()
        hist_first = first.fit(
            x, y, epochs=3, batch_size=32, learning_rate=0.01, rng=7,
            checkpoint_every=1, checkpoint_path=ckpt,
        )
        again = small_net(seed=99)
        hist_again = again.fit(
            x, y, epochs=3, batch_size=32, learning_rate=0.01, rng=7,
            resume_from=ckpt,
        )
        assert hist_again.loss == hist_first.loss
        for w_a, w_b in zip(first.get_weights(), again.get_weights()):
            np.testing.assert_array_equal(w_a, w_b)

    def test_mismatched_data_shape_rejected(self, tmp_path):
        x, y = toy_problem()
        ckpt = tmp_path / "train.ckpt"
        small_net().fit(
            x, y, epochs=1, batch_size=32, rng=0,
            checkpoint_every=1, checkpoint_path=ckpt,
        )
        with pytest.raises(ValueError, match="not be reproducible"):
            small_net().fit(
                x[:100], y[:100], epochs=2, batch_size=32, rng=0, resume_from=ckpt
            )

    def test_checkpoint_every_requires_path(self):
        x, y = toy_problem()
        with pytest.raises(ValueError, match="requires checkpoint_path"):
            small_net().fit(x, y, epochs=1, checkpoint_every=1)


class TestAtomicPersistence:
    def test_torn_checkpoint_write_keeps_previous_checkpoint(self, tmp_path):
        x, y = toy_problem()
        ckpt = tmp_path / "train.ckpt"
        small_net().fit(
            x, y, epochs=1, batch_size=32, rng=0,
            checkpoint_every=1, checkpoint_path=ckpt,
        )
        good = ckpt.read_bytes()
        faults.activate("artifacts.replace:tear@1")
        with pytest.raises(faults.InjectedFault):
            small_net().fit(
                x, y, epochs=1, batch_size=32, rng=0,
                checkpoint_every=1, checkpoint_path=ckpt,
            )
        assert ckpt.read_bytes() == good, "torn write must not clobber the checkpoint"

    def test_torn_model_save_keeps_previous_model(self, tmp_path):
        path = tmp_path / "model.npz"
        net = small_net()
        net.save(path)
        good = path.read_bytes()
        faults.activate("artifacts.replace:tear@1")
        with pytest.raises(faults.InjectedFault):
            small_net(seed=5).save(path)
        assert path.read_bytes() == good
        loaded = Sequential.load(path)
        for w_a, w_b in zip(net.get_weights(), loaded.get_weights()):
            np.testing.assert_array_equal(w_a, w_b)
